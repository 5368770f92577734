"""Tests for the sequential oracle samplers (plain CGS, SparseLDA)."""

import numpy as np
import pytest

from repro.baselines.plain_cgs import PlainCgsSampler
from repro.baselines.sparselda import SparseLdaSampler
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec


@pytest.fixture(scope="module")
def oracle_corpus():
    return generate_synthetic_corpus(
        small_spec(num_docs=60, num_words=80, mean_doc_len=20, num_topics=5),
        seed=8,
    )


class TestPlainCgs:
    def test_converges(self, oracle_corpus):
        s = PlainCgsSampler(oracle_corpus, num_topics=10, seed=0)
        lls = [r.log_likelihood_per_token for r in s.train(8)]
        assert lls[-1] > lls[0]
        s.validate()

    def test_counts_stay_consistent(self, oracle_corpus):
        s = PlainCgsSampler(oracle_corpus, num_topics=6, seed=1)
        s.sweep()
        s.validate()
        assert int(s.model.phi.sum()) == oracle_corpus.num_tokens
        assert np.all(s.model.phi >= 0)
        assert np.all(s.model.theta >= 0)

    def test_paper_default_hyperparams(self, oracle_corpus):
        s = PlainCgsSampler(oracle_corpus, num_topics=50)
        assert s.alpha == pytest.approx(1.0)  # 50/K
        assert s.beta == pytest.approx(0.01)

    def test_invalid_topics(self, oracle_corpus):
        with pytest.raises(ValueError):
            PlainCgsSampler(oracle_corpus, num_topics=1)

    def test_negative_iterations(self, oracle_corpus):
        s = PlainCgsSampler(oracle_corpus, num_topics=4)
        with pytest.raises(ValueError):
            s.train(-1)

    def test_deterministic(self, oracle_corpus):
        a = PlainCgsSampler(oracle_corpus, num_topics=6, seed=3)
        b = PlainCgsSampler(oracle_corpus, num_topics=6, seed=3)
        a.sweep()
        b.sweep()
        assert np.array_equal(a.model.z, b.model.z)


class TestSparseLda:
    def test_converges(self, oracle_corpus):
        s = SparseLdaSampler(oracle_corpus, num_topics=10, seed=0)
        lls = [r.log_likelihood_per_token for r in s.train(8)]
        assert lls[-1] > lls[0]

    def test_p1_fraction_grows_with_convergence(self, oracle_corpus):
        """Sparsity-aware claim: most draws resolve in the sparse bucket."""
        s = SparseLdaSampler(oracle_corpus, num_topics=10, seed=0)
        s.sweep()
        early = s.last_p1_fraction
        s.train(8)
        late = s.last_p1_fraction
        assert late >= early
        assert late > 0.5

    def test_counts_consistent(self, oracle_corpus):
        s = SparseLdaSampler(oracle_corpus, num_topics=6, seed=1)
        s.sweep()
        theta = np.zeros_like(s.model.theta)
        phi = np.zeros_like(s.model.phi)
        np.add.at(theta, (s.doc_ids, s.model.z), 1)
        np.add.at(phi, (s.model.z, s.word_ids), 1)
        assert np.array_equal(theta, s.model.theta)
        assert np.array_equal(phi, s.model.phi)

    def test_invalid_topics(self, oracle_corpus):
        with pytest.raises(ValueError):
            SparseLdaSampler(oracle_corpus, num_topics=0)


class TestOracleAgreement:
    def test_same_stationary_quality(self, oracle_corpus):
        """Both exact samplers reach the same likelihood plateau."""
        dense = PlainCgsSampler(oracle_corpus, num_topics=8, seed=0)
        sparse = SparseLdaSampler(oracle_corpus, num_topics=8, seed=0)
        ll_dense = dense.train(12)[-1].log_likelihood_per_token
        ll_sparse = sparse.train(12)[-1].log_likelihood_per_token
        assert ll_dense == pytest.approx(ll_sparse, abs=0.15)
