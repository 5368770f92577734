"""Tests for SparseLDA's vectorised word-batched sweep mode."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import create_trainer, get_algorithm
from repro.baselines.sparselda import SparseLdaSampler
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_corpus(
        small_spec(num_docs=100, num_words=160, mean_doc_len=25, num_topics=6),
        seed=13,
    )


class TestBatchedSweep:
    def test_counts_stay_consistent(self, corpus):
        s = SparseLdaSampler(corpus, num_topics=10, seed=0, batch_words=True)
        s.sweep()
        s.validate()
        assert int(s.model.phi.sum()) == corpus.num_tokens

    def test_converges(self, corpus):
        s = SparseLdaSampler(corpus, num_topics=10, seed=0, batch_words=True)
        lls = [r.log_likelihood_per_token for r in s.train(8)]
        assert lls[-1] > lls[0]

    def test_deterministic(self, corpus):
        a = SparseLdaSampler(corpus, num_topics=8, seed=3, batch_words=True)
        b = SparseLdaSampler(corpus, num_topics=8, seed=3, batch_words=True)
        a.sweep()
        b.sweep()
        assert np.array_equal(a.model.z, b.model.z)

    def test_modes_differ_but_agree_statistically(self, corpus):
        """Same posterior target: both modes reach the same LL plateau.

        Snapshot (per-sweep) updates mix slower per sweep than immediate
        per-token updates — exactly the CuLDA-vs-sequential trade the
        paper accepts for parallelism — so the batched chain gets more
        (much cheaper) sweeps to reach the plateau.
        """
        exact = SparseLdaSampler(corpus, num_topics=8, seed=0)
        batched = SparseLdaSampler(corpus, num_topics=8, seed=0, batch_words=True)
        ll_exact = exact.train(10)[-1].log_likelihood_per_token
        ll_batched = batched.train(60)[-1].log_likelihood_per_token
        assert ll_exact == pytest.approx(ll_batched, abs=0.2)

    def test_p1_fraction_tracked(self, corpus):
        s = SparseLdaSampler(corpus, num_topics=10, seed=0, batch_words=True)
        s.train(6)
        assert 0.0 < s.last_p1_fraction <= 1.0

    def test_describe_reports_mode(self, corpus):
        s = SparseLdaSampler(corpus, num_topics=8, batch_words=True)
        assert s.describe()["batch_words"] is True
        assert SparseLdaSampler(corpus, num_topics=8).describe()[
            "batch_words"
        ] is False


class TestRegistryDefault:
    def test_registry_defaults_to_batched(self, corpus):
        trainer = create_trainer("sparselda", corpus, topics=8)
        assert trainer.inner.batch_words is True
        assert "batch_words" in get_algorithm("sparselda").all_options()

    def test_registry_exact_opt_out(self, corpus):
        trainer = create_trainer("sparselda", corpus, topics=8, batch_words=False)
        assert trainer.inner.batch_words is False

    def test_registry_batched_trains(self, corpus):
        trainer = create_trainer("sparselda", corpus, topics=8, seed=1)
        result = trainer.fit(3)
        assert len(result.records) == 3
        assert np.isfinite(result.final_log_likelihood)
