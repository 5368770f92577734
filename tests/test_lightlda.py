"""Tests for the LightLDA-style alias-MH baseline."""

import numpy as np
import pytest

from repro.baselines.lightlda import LightLdaTrainer
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec


@pytest.fixture(scope="module")
def lda_corpus():
    return generate_synthetic_corpus(
        small_spec(num_docs=80, num_words=100, mean_doc_len=25, num_topics=5),
        seed=14,
    )


class TestLightLda:
    def test_converges(self, lda_corpus):
        t = LightLdaTrainer(lda_corpus, num_topics=10, seed=0)
        hist = t.train(15)
        assert hist[-1].log_likelihood_per_token > hist[0].log_likelihood_per_token

    def test_counts_consistent(self, lda_corpus):
        t = LightLdaTrainer(lda_corpus, num_topics=8, seed=1)
        t.train(3, compute_likelihood_every=0)
        m = t.model
        theta = np.zeros_like(m.theta)
        phi = np.zeros_like(m.phi)
        np.add.at(theta, (t.doc_ids, m.z), 1)
        np.add.at(phi, (m.z, t.word_ids), 1)
        assert np.array_equal(theta, m.theta)
        assert np.array_equal(phi, m.phi)
        assert np.array_equal(phi.sum(axis=1), m.topic_totals)

    def test_deterministic(self, lda_corpus):
        a = LightLdaTrainer(lda_corpus, num_topics=8, seed=3)
        b = LightLdaTrainer(lda_corpus, num_topics=8, seed=3)
        a.train(2, compute_likelihood_every=0)
        b.train(2, compute_likelihood_every=0)
        assert np.array_equal(a.model.z, b.model.z)

    def test_paper_default_hyperparams(self, lda_corpus):
        t = LightLdaTrainer(lda_corpus, num_topics=50)
        assert t.alpha == pytest.approx(1.0)
        assert t.beta == pytest.approx(0.01)

    def test_alias_rebuild_cost_charged(self, lda_corpus):
        """The O(V*K) alias rebuild appears in the per-iteration time."""
        small_k = LightLdaTrainer(lda_corpus, num_topics=4, seed=0)
        big_k = LightLdaTrainer(lda_corpus, num_topics=64, seed=0)
        assert big_k._iteration_seconds() > small_k._iteration_seconds()

    def test_invalid_topics(self, lda_corpus):
        with pytest.raises(ValueError):
            LightLdaTrainer(lda_corpus, num_topics=1)

    def test_negative_iterations(self, lda_corpus):
        t = LightLdaTrainer(lda_corpus, num_topics=4)
        with pytest.raises(ValueError):
            t.train(-1)

    def test_reaches_cgs_quality(self, lda_corpus):
        """Alias-MH must approach the exact sampler's plateau."""
        from repro.baselines.plain_cgs import PlainCgsSampler

        light = LightLdaTrainer(lda_corpus, num_topics=8, seed=0)
        light_ll = light.train(25)[-1].log_likelihood_per_token
        exact = PlainCgsSampler(lda_corpus, num_topics=8, seed=0)
        exact_ll = exact.train(15)[-1].log_likelihood_per_token
        assert light_ll > exact_ll - 0.4
