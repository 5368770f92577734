"""Tests for topic quality metrics (coherence, diversity, shares)."""

import numpy as np
import pytest

from repro.analysis.topics import (
    effective_topics,
    top_words_matrix,
    topic_diversity,
    topic_shares,
    umass_coherence,
)
from repro.core import CuLdaTrainer, TrainerConfig
from repro.corpus.document import Corpus
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec
from repro.model import TopicModel


@pytest.fixture(scope="module")
def trained_state():
    corpus = generate_synthetic_corpus(
        small_spec(num_docs=200, num_words=250, mean_doc_len=40, num_topics=5),
        seed=31,
    )
    t = CuLdaTrainer(corpus, TrainerConfig(num_topics=10, seed=0))
    t.train(20, compute_likelihood_every=0)
    return corpus, t.state


class TestTopWords:
    def test_shape_and_order(self, trained_state):
        _, state = trained_state
        m = top_words_matrix(state, top_n=7)
        assert m.shape == (10, 7)
        for k in range(10):
            counts = state.phi[k, m[k]]
            assert np.all(np.diff(counts) <= 0)

    def test_invalid_topn(self, trained_state):
        _, state = trained_state
        with pytest.raises(ValueError):
            top_words_matrix(state, top_n=0)


class TestCoherence:
    def test_coherent_beats_incoherent(self):
        """Words that co-occur must score higher than words that never do."""
        # docs: words 0-2 always together; words 3-5 always together.
        docs = [[0, 1, 2]] * 20 + [[3, 4, 5]] * 20
        c = Corpus.from_token_lists(docs, num_words=6)
        coherent = np.array([[0, 1, 2]])
        incoherent = np.array([[0, 3, 5]])
        good = umass_coherence(c, coherent)[0]
        bad = umass_coherence(c, incoherent)[0]
        assert good > bad

    def test_perfect_cooccurrence_is_zero(self):
        docs = [[0, 1]] * 10
        c = Corpus.from_token_lists(docs, num_words=2)
        score = umass_coherence(c, np.array([[0, 1]]), epsilon=1e-12)
        assert score[0] == pytest.approx(0.0, abs=1e-6)

    def test_validation(self, trained_state):
        corpus, _ = trained_state
        with pytest.raises(ValueError):
            umass_coherence(corpus, np.array([0, 1]))  # 1-D
        with pytest.raises(ValueError):
            umass_coherence(corpus, np.array([[0, 1]]), epsilon=0)

    def test_trained_topics_have_finite_coherence(self, trained_state):
        corpus, state = trained_state
        scores = umass_coherence(corpus, top_words_matrix(state, 5))
        assert scores.shape == (10,)
        assert np.all(np.isfinite(scores))
        assert np.all(scores <= 0.01)  # log ratios of probabilities


class TestDiversityAndShares:
    def test_diversity_bounds(self, trained_state):
        _, state = trained_state
        d = topic_diversity(top_words_matrix(state, 10))
        assert 0 < d <= 1

    def test_diversity_identical_topics(self):
        tw = np.zeros((4, 5), dtype=np.int64)
        assert topic_diversity(tw) == pytest.approx(1 / 20)

    def test_diversity_empty(self):
        with pytest.raises(ValueError):
            topic_diversity(np.zeros((0, 0), dtype=np.int64))

    def test_shares_sum_to_one(self, trained_state):
        _, state = trained_state
        s = topic_shares(state)
        assert s.sum() == pytest.approx(1.0)
        assert np.all(s >= 0)

    def test_effective_topics_bounds(self, trained_state):
        _, state = trained_state
        eff = effective_topics(state)
        assert 1.0 <= eff <= state.num_topics

    def test_word_distribution(self, trained_state):
        """Each topic's smoothed p(w | k), read from the model artifact."""
        _, state = trained_state
        p = TopicModel.from_state(state).word_given_topic()
        assert p.sum(axis=1) == pytest.approx(np.ones(state.num_topics))
        assert np.all(p > 0)  # beta smoothing
