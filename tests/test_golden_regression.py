"""Golden fixed-seed regressions: the perf overhaul is value-preserving.

``tests/golden/seed_assignments.json`` holds topic assignments captured
on the pre-overhaul seed tree (commit bb018e3) for fixed seeds, plus
warplda/saberlda captures pinned on the PR-3 tree.  These tests replay
the same runs on the current tree and assert the draws are
**bit-identical** on the default float64 paths:

- culda under both work schedules (workspace-backed kernel), in serial
  and process execution — the latter under both phi sync modes
  (barrier / overlap: communication hiding must not touch the chain);
- culda's kernel with ``workspace=None`` against the pooled capture;
- plain CGS (hoisted sequential loop);
- WarpLDA (vectorised MH passes) and SaberLDA (shared CuLDA core on the
  degraded cost levers);
- LDA* (delta-accumulation worker loop — verified bit-identical to the
  pre-PR-3 per-replica loop when captured), in both execution modes.

Any arithmetic reordering, RNG stream change, or buffer-aliasing bug in
the kernels shows up here as a hard failure.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import create_trainer
from repro.baselines.plain_cgs import PlainCgsSampler
from repro.baselines.saberlda import SaberLdaTrainer
from repro.baselines.warplda import WarpLdaConfig, WarpLdaTrainer
from repro.corpus.synthetic import SyntheticSpec, generate_synthetic_corpus

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "seed_assignments.json").read_text()
)


def expected(case: str) -> np.ndarray:
    return np.asarray(GOLDEN["cases"][case]["z"], dtype=np.int64)


def assert_golden(z: np.ndarray, case: str) -> None:
    """Exact equality with the capture of ``case``; a mismatch names the
    case, how many draws differ and the first differing index."""
    want = expected(case)
    z = np.asarray(z, dtype=np.int64)
    if z.shape != want.shape:
        detail = f"shape {z.shape} != captured {want.shape}"
    else:
        diff = np.flatnonzero(z != want)
        detail = (
            f"{diff.size} of {want.size} draws differ"
            + (f", first at index {diff[0]} (got {z[diff[0]]}, captured "
               f"{want[diff[0]]})" if diff.size else "")
        )
    assert np.array_equal(z, want), f"golden {case!r}: {detail}"


def meta(case: str) -> dict:
    return GOLDEN["cases"][case]["meta"]


@pytest.fixture(scope="module")
def golden_corpus():
    return generate_synthetic_corpus(
        SyntheticSpec(**GOLDEN["corpus"]["spec"]), seed=GOLDEN["corpus"]["seed"]
    )


class TestCuLdaGolden:
    @pytest.mark.parametrize("case", ["culda_ws1", "culda_ws2"])
    def test_assignments_bit_identical(self, golden_corpus, case):
        m = meta(case)
        trainer = create_trainer(
            "culda",
            golden_corpus,
            topics=m["topics"],
            seed=m["seed"],
            gpus=m["gpus"],
            chunks_per_gpu=m["chunks_per_gpu"],
        )
        trainer.fit(m["iterations"], likelihood_every=0)
        z = np.concatenate(
            [cs.topics.astype(np.int64) for cs in trainer.state.chunks]
        )
        assert_golden(z, case)

    @pytest.mark.parametrize("sync_mode", ["barrier", "overlap"])
    @pytest.mark.parametrize("case", ["culda_ws1", "culda_ws2"])
    def test_process_execution_matches_serial_goldens(
        self, golden_corpus, case, sync_mode
    ):
        """OS-worker execution must reproduce the serial captures
        bit-for-bit — under both phi-sync modes, including the overlapped
        pipeline (communication hiding must not touch the chain)."""
        m = meta(case)
        trainer = create_trainer(
            "culda",
            golden_corpus,
            topics=m["topics"],
            seed=m["seed"],
            gpus=m["gpus"],
            chunks_per_gpu=m["chunks_per_gpu"],
            execution="process",
            num_workers=2,
            sync_mode=sync_mode,
        )
        try:
            trainer.fit(m["iterations"], likelihood_every=0)
            z = np.concatenate(
                [cs.topics.astype(np.int64) for cs in trainer.state.chunks]
            )
        finally:
            trainer.close()
        assert_golden(z, case)

    def test_workspace_free_kernel_matches_golden(
        self, golden_corpus, monkeypatch
    ):
        """``workspace=None`` (fresh float64 buffers) reproduces the
        pooled-workspace capture bit-for-bit."""
        import repro.core.scheduler as scheduler_mod
        from repro.core.sampler import sample_chunk

        calls = []

        def bare_sample_chunk(*args, workspace=None, **kwargs):
            calls.append(workspace)
            return sample_chunk(*args, workspace=None, **kwargs)

        monkeypatch.setattr(scheduler_mod, "sample_chunk", bare_sample_chunk)
        m = meta("culda_ws2")
        trainer = create_trainer(
            "culda",
            golden_corpus,
            topics=m["topics"],
            seed=m["seed"],
            gpus=m["gpus"],
            chunks_per_gpu=m["chunks_per_gpu"],
        )
        trainer.fit(m["iterations"], likelihood_every=0)
        z = np.concatenate(
            [cs.topics.astype(np.int64) for cs in trainer.state.chunks]
        )
        assert calls and all(ws is not None for ws in calls)
        assert_golden(z, "culda_ws2")

    def test_workspace_actually_reused(self, golden_corpus):
        """The golden run must go through the pooled-buffer path."""
        m = meta("culda_ws1")
        trainer = create_trainer(
            "culda", golden_corpus, topics=m["topics"], seed=m["seed"]
        )
        trainer.fit(m["iterations"], likelihood_every=0)
        stats = trainer.inner.workspace_stats()
        assert stats and stats[0]["hits"] > stats[0]["misses"]


class TestSequentialGolden:
    def test_plain_cgs(self, golden_corpus):
        m = meta("plain_cgs")
        p = PlainCgsSampler(golden_corpus, num_topics=m["topics"], seed=m["seed"])
        for _ in range(m["sweeps"]):
            p.sweep()
        assert_golden(p.model.z, "plain_cgs")

    def test_warplda(self, golden_corpus):
        m = meta("warplda")
        t = WarpLdaTrainer(
            golden_corpus,
            WarpLdaConfig(
                num_topics=m["topics"], seed=m["seed"], mh_rounds=m["mh_rounds"]
            ),
        )
        t.train(m["iterations"], compute_likelihood_every=0)
        assert_golden(t.model.z.astype(np.int64), "warplda")

    def test_saberlda(self, golden_corpus):
        m = meta("saberlda")
        t = SaberLdaTrainer(golden_corpus, num_topics=m["topics"], seed=m["seed"])
        t.train(m["iterations"], compute_likelihood_every=0)
        z = np.concatenate([cs.topics.astype(np.int64) for cs in t.state.chunks])
        assert_golden(z, "saberlda")

    @pytest.mark.parametrize(
        "execution,sync_mode",
        [("serial", "barrier"), ("process", "barrier"), ("process", "overlap")],
    )
    def test_ldastar(self, golden_corpus, execution, sync_mode):
        from repro.baselines.ldastar import LdaStarTrainer

        m = meta("ldastar")
        t = LdaStarTrainer(
            golden_corpus, num_topics=m["topics"], num_workers=m["workers"],
            seed=m["seed"], execution=execution, num_processes=2,
            sync_mode=sync_mode,
        )
        try:
            t.train(m["iterations"], compute_likelihood_every=0)
            z = np.concatenate(
                [cs.topics.astype(np.int64) for cs in t.state.chunks]
            )
        finally:
            t.close()
        assert_golden(z, "ldastar")
