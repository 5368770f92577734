"""Tests for the sequential oracle sampler (plain CGS)."""

import numpy as np
import pytest

from repro.baselines.plain_cgs import PlainCgsSampler
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

