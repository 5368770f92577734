"""Tests for the update kernels (Section 6.2)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import TrainerConfig
from repro.core.model import LdaState
from repro.core.updates import apply_phi_update, verify_phi_consistency


class TestPhiUpdate:
    def test_matches_recount(self, small_corpus):
        cfg = TrainerConfig(num_topics=8, seed=0)
        state = LdaState.initialize(small_corpus, cfg)
        cs = state.chunks[0]
        rng = np.random.default_rng(1)
        z_new = rng.integers(0, 8, size=cs.num_tokens).astype(cs.topics.dtype)
        phi = state.phi.copy()
        totals = state.topic_totals.copy()
        changed = apply_phi_update(
            phi, totals, cs.chunk.token_words, cs.topics, z_new
        )
        # recount from scratch
        expect = state.phi.copy()
        np.subtract.at(
            expect,
            (cs.topics.astype(np.int64), cs.chunk.token_words.astype(np.int64)),
            1,
        )
        np.add.at(
            expect, (z_new.astype(np.int64), cs.chunk.token_words.astype(np.int64)), 1
        )
        assert np.array_equal(phi, expect)
        assert np.array_equal(totals, expect.sum(axis=1, dtype=np.int64))
        assert changed == int((z_new != cs.topics).sum())

    def test_noop_when_unchanged(self, small_corpus):
        cfg = TrainerConfig(num_topics=8, seed=0)
        state = LdaState.initialize(small_corpus, cfg)
        cs = state.chunks[0]
        phi = state.phi.copy()
        totals = state.topic_totals.copy()
        changed = apply_phi_update(
            phi, totals, cs.chunk.token_words, cs.topics, cs.topics.copy()
        )
        assert changed == 0
        assert np.array_equal(phi, state.phi)

    def test_accumulators_receive_the_same_delta(self, small_corpus):
        """The pre-reduced worker delta equals the change applied to phi."""
        cfg = TrainerConfig(num_topics=8, seed=0)
        state = LdaState.initialize(small_corpus, cfg)
        cs = state.chunks[0]
        z_new = np.random.default_rng(4).integers(
            0, 8, size=cs.num_tokens
        ).astype(cs.topics.dtype)
        phi = state.phi.copy()
        totals = state.topic_totals.copy()
        acc_phi = np.full_like(phi, 5)
        acc_totals = np.full_like(totals, 5)
        apply_phi_update(
            phi, totals, cs.chunk.token_words, cs.topics, z_new,
            accum_phi=acc_phi, accum_totals=acc_totals,
        )
        assert np.array_equal(acc_phi - 5, phi - state.phi)
        assert np.array_equal(acc_totals - 5, totals - state.topic_totals)
        assert acc_phi.dtype == phi.dtype == state.phi.dtype

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_phi_update(
                np.zeros((2, 2), np.int32), np.zeros(2, np.int64),
                np.zeros(3, np.int32), np.zeros(3, np.int32), np.zeros(2, np.int32),
            )

    @given(st.integers(min_value=0, max_value=10_000))
    def test_token_conservation(self, seed):
        """phi total is invariant under any reassignment."""
        rng = np.random.default_rng(seed)
        n, k, v = 50, 6, 9
        words = rng.integers(0, v, size=n).astype(np.int32)
        z_old = rng.integers(0, k, size=n).astype(np.int32)
        z_new = rng.integers(0, k, size=n).astype(np.int32)
        phi = np.zeros((k, v), dtype=np.int64)
        np.add.at(phi, (z_old.astype(np.int64), words.astype(np.int64)), 1)
        totals = phi.sum(axis=1)
        apply_phi_update(phi, totals, words, z_old, z_new)
        assert int(phi.sum()) == n
        assert np.all(phi >= 0)
        verify_phi_consistency(phi, totals, n)


class TestThetaUpdate:
    def test_rebuild_consistent(self, small_corpus):
        cfg = TrainerConfig(num_topics=8, seed=0)
        state = LdaState.initialize(small_corpus, cfg)
        cs = state.chunks[0]
        rng = np.random.default_rng(2)
        cs.topics = rng.integers(0, 8, size=cs.num_tokens).astype(cs.topics.dtype)
        theta = cs.rebuild_theta(8)
        dense = theta.to_dense()
        expect = np.zeros_like(dense)
        np.add.at(
            expect,
            (cs.chunk.token_docs.astype(np.int64), cs.topics.astype(np.int64)),
            1,
        )
        assert np.array_equal(dense, expect)
        theta.validate()


class TestVerify:
    def test_negative_detected(self):
        phi = np.array([[1, -1], [0, 2]])
        with pytest.raises(AssertionError, match="negative"):
            verify_phi_consistency(phi, phi.sum(axis=1))

    def test_totals_detected(self):
        phi = np.array([[1, 1], [0, 2]])
        with pytest.raises(AssertionError, match="inconsistent"):
            verify_phi_consistency(phi, np.array([1, 2]))

    def test_token_count_detected(self):
        phi = np.array([[1, 1]])
        with pytest.raises(AssertionError, match="expected"):
            verify_phi_consistency(phi, phi.sum(axis=1), expected_tokens=3)

    def test_clean_passes(self):
        phi = np.array([[1, 1], [2, 0]])
        verify_phi_consistency(phi, phi.sum(axis=1), expected_tokens=4)
