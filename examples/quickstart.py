#!/usr/bin/env python
"""Quickstart: train LDA through the unified `repro` API.

Generates a small LDA-distributed corpus, trains CuLDA_CGS for 30
iterations on a simulated V100 via ``repro.create_trainer``, and prints
convergence metrics plus the top words of a few topics.  Swap the
algorithm name for any of ``repro.algorithm_names()`` — same surface,
same result type.  Runs in well under a minute on any machine.

    python examples/quickstart.py
"""

import repro
from repro.analysis.reporting import render_sparkline, render_table
from repro.analysis.topics import top_words_matrix
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec


def main() -> None:
    # 1. A corpus: 500 documents over 800 words with 10 planted topics.
    spec = small_spec(
        name="quickstart", num_docs=500, num_words=800,
        mean_doc_len=60, num_topics=10,
    )
    corpus = generate_synthetic_corpus(spec, seed=0, with_vocabulary=True)
    print(f"corpus: D={corpus.num_docs} V={corpus.num_words} T={corpus.num_tokens}")
    print(f"algorithms available: {', '.join(repro.algorithm_names())}")

    # 2. A trainer by name: K=32 topics, paper hyper-parameters
    #    (alpha=50/K, beta=0.01), one simulated V100.
    trainer = repro.create_trainer(
        "culda", corpus, topics=32, seed=7, platform="Volta"
    )

    # 3. Train and watch the metrics the paper reports.
    result = trainer.fit(num_iterations=30)
    lls = [r.log_likelihood_per_token for r in result.records]
    tps = [r.tokens_per_sec / 1e6 for r in result.records]
    print(f"\nlog-likelihood/token: {lls[0]:.3f} -> {lls[-1]:.3f}")
    print(f"  {render_sparkline(lls)}")
    print(f"throughput (simulated V100): {tps[0]:.0f}M -> {tps[-1]:.0f}M tokens/s")
    print(f"  {render_sparkline(tps)}")
    print(
        f"theta density (mean Kd): {result.records[0].mean_kd:.1f} -> "
        f"{result.records[-1].mean_kd:.1f}"
    )

    # 4. Inspect topics: the highest-count words per topic.
    top = top_words_matrix(trainer.state, 6)
    rows = []
    for k in range(5):
        words = corpus.vocabulary.terms_of(top[k])
        rows.append([k, " ".join(words)])
    print("\n" + render_table(["topic", "top words"], rows))

    # 5. Invariants always hold after training.
    trainer.state.validate()
    print("\nmodel invariants: OK")


if __name__ == "__main__":
    main()
