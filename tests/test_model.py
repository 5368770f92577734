"""Tests for LdaState construction and invariants."""

import numpy as np
import pytest

from repro.analysis.topics import top_words_matrix
from repro.core import TrainerConfig
from repro.core.model import LdaState
from repro.model import TopicModel


class TestInitialize:
    def test_invariants_hold_after_init(self, small_corpus):
        cfg = TrainerConfig(num_topics=12, seed=0)
        state = LdaState.initialize(small_corpus, cfg)
        state.validate()

    def test_phi_accounts_all_tokens(self, small_corpus):
        cfg = TrainerConfig(num_topics=12, seed=0)
        state = LdaState.initialize(small_corpus, cfg)
        assert int(state.phi.sum(dtype=np.int64)) == small_corpus.num_tokens
        assert state.num_tokens == small_corpus.num_tokens

    def test_multi_chunk_initialisation(self, small_corpus):
        cfg = TrainerConfig(num_topics=12, num_gpus=2, chunks_per_gpu=2, seed=0)
        state = LdaState.initialize(small_corpus, cfg)
        assert len(state.chunks) == 4
        state.validate()

    def test_deterministic(self, small_corpus):
        cfg = TrainerConfig(num_topics=12, seed=5)
        a = LdaState.initialize(small_corpus, cfg)
        b = LdaState.initialize(small_corpus, cfg)
        assert np.array_equal(a.phi, b.phi)
        for ca, cb in zip(a.chunks, b.chunks):
            assert np.array_equal(ca.topics, cb.topics)

    def test_topic_dtype_compressed(self, small_corpus):
        cfg = TrainerConfig(num_topics=12, seed=0, compress=True)
        state = LdaState.initialize(small_corpus, cfg)
        assert state.chunks[0].topics.dtype == np.uint16

    def test_invalid_hyperparams(self, small_corpus):
        with pytest.raises(ValueError):
            LdaState(num_topics=4, num_words=10, alpha=0.0, beta=0.1, chunks=[])


class TestAccessors:
    @pytest.fixture(scope="class")
    def state(self, small_corpus):
        return LdaState.initialize(small_corpus, TrainerConfig(num_topics=10, seed=1))

    def test_top_words(self, state):
        top = top_words_matrix(state, 5)
        assert top.shape == (10, 5)
        row = state.phi[0]
        assert row[top[0, 0]] == row.max()
        assert np.all(np.diff(row[top[0]]) <= 0)

    def test_top_words_bad_topic(self, state):
        with pytest.raises(IndexError):
            TopicModel.from_state(state).top_words(99)
        with pytest.raises(ValueError):
            top_words_matrix(state, 0)

    def test_doc_topic_matrix(self, state, small_corpus):
        m = state.doc_topic_matrix()
        assert m.shape == (small_corpus.num_docs, 10)
        assert np.array_equal(m.sum(axis=1), small_corpus.doc_lengths())


class TestValidateCatchesCorruption:
    def test_phi_corruption(self, small_corpus):
        state = LdaState.initialize(small_corpus, TrainerConfig(num_topics=8, seed=0))
        state.phi[0, 0] += 1
        with pytest.raises(AssertionError):
            state.validate()

    def test_totals_corruption(self, small_corpus):
        state = LdaState.initialize(small_corpus, TrainerConfig(num_topics=8, seed=0))
        state.topic_totals[0] += 1
        with pytest.raises(AssertionError, match="out of sync|total"):
            state.validate()

    def test_theta_corruption(self, small_corpus):
        state = LdaState.initialize(small_corpus, TrainerConfig(num_topics=8, seed=0))
        state.chunks[0].theta.data[0] += 1
        with pytest.raises(AssertionError):
            state.validate()
