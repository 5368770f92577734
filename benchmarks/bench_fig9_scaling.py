"""Figure 9 — Multi-GPU scalability on the Pascal platform (PubMed).

Paper: "Compared with one GPU, CuLDA_CGS achieves 1.93X and 2.99X
speedup when using two and four GPUs."  Sub-linear because the phi
tree-synchronization grows with log2(G) while per-GPU work shrinks.

Multi-GPU timing involves real cross-device overlap, so this bench runs
the actual scheduler per GPU count (no replay shortcut).
"""

import numpy as np
import pytest

from repro.analysis.metrics import scaling_table
from repro.analysis.reporting import render_series, render_table
from repro.core import CuLdaTrainer, TrainerConfig
from repro.core.trainer import mean_tokens_per_sec
from repro.corpus.synthetic import SyntheticSpec, generate_synthetic_corpus
from repro.gpusim.platform import PASCAL_PLATFORM

SCALING_ITERATIONS = 10
SCALING_TOPICS = 128
GPU_COUNTS = (1, 2, 4)
PAPER_SPEEDUP = {1: 1.0, 2: 1.93, 4: 2.99}

#: PubMed-shaped workload sized so the tokens : phi-entries ratio matches
#: the full-scale experiment (~3-5 tokens per phi entry).  Figure 9's
#: speedup depends on the compute : sync ratio, and sync cost is the phi
#: replica size — a corpus that is small *relative to phi* would
#: (correctly but irrelevantly) show sync-bound scaling.
FIG9_SPEC = SyntheticSpec(
    name="pubmed-fig9",
    num_docs=7000,
    num_words=1500,
    mean_doc_len=80.0,
    doc_len_sigma=0.5,
    num_topics=64,
)


@pytest.fixture(scope="module")
def fig9_corpus():
    return generate_synthetic_corpus(FIG9_SPEC, seed=303)


@pytest.fixture(scope="module")
def scaling_runs(fig9_corpus):
    runs = {}
    for g in GPU_COUNTS:
        cfg = TrainerConfig(num_topics=SCALING_TOPICS, num_gpus=g, seed=0)
        t = CuLdaTrainer(fig9_corpus, cfg, platform=PASCAL_PLATFORM)
        t.train(SCALING_ITERATIONS, compute_likelihood_every=0)
        runs[g] = t
    return runs


def test_fig9a_throughput_curves(benchmark, capsys, scaling_runs):
    def run():
        return {
            g: np.array([r.tokens_per_sec for r in t.history])
            for g, t in scaling_runs.items()
        }

    curves = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nFigure 9(a): PubMed-like throughput per iteration, Pascal")
        for g, series in curves.items():
            print(
                render_series(
                    np.arange(series.size),
                    series / 1e6,
                    x_label="iteration",
                    y_label=f"GPU*{g} MTokens/s",
                    max_points=6,
                )
            )
    # every added GPU increases steady-state throughput
    steady = {g: float(s[-4:].mean()) for g, s in curves.items()}
    assert steady[4] > steady[2] > steady[1]


def test_fig9b_speedup(benchmark, capsys, scaling_runs):
    def run():
        tps = {g: mean_tokens_per_sec(t.history) for g, t in scaling_runs.items()}
        return scaling_table(tps)

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [
            p.num_gpus,
            f"{p.tokens_per_sec / 1e6:.1f}M",
            f"{p.speedup:.2f}x",
            f"{PAPER_SPEEDUP[p.num_gpus]:.2f}x",
            f"{p.efficiency:.2f}",
        ]
        for p in points
    ]
    with capsys.disabled():
        print(
            "\n"
            + render_table(
                ["#GPUs", "Tokens/s", "Speedup", "Paper speedup", "Efficiency"],
                rows,
                title="Figure 9(b): multi-GPU scalability (Pascal, PubMed-like)",
            )
            + "\n"
        )

    by_g = {p.num_gpus: p for p in points}
    # Sub-linear but real scaling, in the paper's bands.
    assert 1.5 < by_g[2].speedup <= 2.0
    assert 2.2 < by_g[4].speedup <= 4.0
    # Efficiency decreases with G (the log G sync tax).
    assert by_g[1].efficiency >= by_g[2].efficiency >= by_g[4].efficiency


def test_fig9_convergence_unharmed(fig9_corpus, scaling_runs):
    """Scaling must not trade away model quality: 4-GPU run converges to
    the same likelihood as 1-GPU (stale replicas reconcile exactly)."""
    from repro.core.likelihood import log_likelihood_per_token

    lls = {g: log_likelihood_per_token(t.state) for g, t in scaling_runs.items()}
    assert lls[4] == pytest.approx(lls[1], abs=0.3)
    assert lls[2] == pytest.approx(lls[1], abs=0.3)
