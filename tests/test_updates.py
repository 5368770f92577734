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


def _dense_update(phi, totals, words, z_old, z_new):
    """The dense signed-delta formula, the reference for apply_phi_update."""
    k, v = phi.shape
    zo, zn = z_old.astype(np.int64), z_new.astype(np.int64)
    w = words.astype(np.int64)
    delta = np.bincount(zn * v + w, minlength=k * v)
    delta -= np.bincount(zo * v + w, minlength=k * v)
    out_phi = phi + delta.reshape(k, v).astype(phi.dtype)
    out_tot = totals + np.bincount(zn, minlength=k) - np.bincount(zo, minlength=k)
    return out_phi, out_tot, int(np.count_nonzero(zo != zn))


class TestPhiUpdateOneHistogram:
    """One dense histogram at a time, bit-equal to the dense formula."""

    @given(
        st.integers(1, 6), st.integers(1, 9), st.integers(0, 40),
        st.integers(0, 2**16), st.floats(0.0, 1.0),
    )
    def test_matches_the_dense_formula(self, k, v, n, seed, p_change):
        gen = np.random.default_rng(seed)
        words = gen.integers(0, v, n).astype(np.int32)
        z_old = gen.integers(0, k, n).astype(np.uint16)
        z_new = np.where(
            gen.random(n) < p_change, gen.integers(0, k, n), z_old
        ).astype(np.uint16)
        phi = np.zeros((k, v), np.int32)
        np.add.at(phi, (z_old.astype(np.int64), words), 1)
        totals = phi.sum(axis=1, dtype=np.int64)
        acc_phi = gen.integers(-5, 5, (k, v)).astype(np.int64)
        acc_tot = gen.integers(-5, 5, k).astype(np.int64)
        want_phi, want_tot, want_n = _dense_update(phi, totals, words, z_old, z_new)
        d_phi, d_tot, _ = _dense_update(
            np.zeros_like(acc_phi), np.zeros_like(acc_tot), words, z_old, z_new
        )
        want_acc, want_acc_tot = acc_phi + d_phi, acc_tot + d_tot
        got = apply_phi_update(
            phi, totals, words, z_old, z_new,
            accum_phi=acc_phi, accum_totals=acc_tot,
        )
        assert got == want_n
        assert np.array_equal(phi, want_phi) and np.array_equal(totals, want_tot)
        assert np.array_equal(acc_phi, want_acc)
        assert np.array_equal(acc_tot, want_acc_tot)

    def test_no_tokens_changed(self):
        words = np.array([0, 1, 1], np.int32)
        z = np.array([1, 0, 1], np.uint16)
        phi = np.array([[0, 1], [1, 1]], np.int32)
        totals = np.array([1, 2], np.int64)
        acc = np.zeros((2, 2), np.int64)
        assert apply_phi_update(phi, totals, words, z, z.copy(), accum_phi=acc) == 0
        assert np.array_equal(phi, [[0, 1], [1, 1]]) and not acc.any()

    def test_transient_is_one_histogram_plus_the_changed_tokens(self):
        import tracemalloc

        k, v, n, changed = 64, 2000, 50_000, 500
        gen = np.random.default_rng(3)
        words = gen.integers(0, v, n).astype(np.int32)
        z_old = gen.integers(0, k, n).astype(np.uint16)
        z_new = z_old.copy()
        z_new[:changed] = (z_old[:changed] + 1) % k
        phi = np.zeros((k, v), np.int32)
        np.add.at(phi, (z_old.astype(np.int64), words), 1)
        totals = phi.sum(axis=1, dtype=np.int64)
        tracemalloc.start()
        try:
            apply_phi_update(phi, totals, words, z_old, z_new)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one K x V int64 histogram, one bool per token for the change
        # mask, a few int64 arrays over the changed tokens, small change
        assert peak < 8 * k * v + n + 64 * changed + 64 * 1024
