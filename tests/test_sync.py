"""Tests for multi-GPU phi synchronization (Figure 4)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.sync import (
    reconcile_phi,
    reconcile_prereduced,
    simulate_phi_sync,
    synchronize,
)
from repro.gpusim.device import SimulatedGPU
from repro.gpusim.platform import TITAN_XP_PASCAL


class TestReconcile:
    def test_single_replica_identity(self):
        ref = np.array([[1, 2], [3, 4]], dtype=np.int32)
        rep = ref.copy()
        rep[0, 0] += 1
        rep[1, 1] -= 1
        out = reconcile_phi(ref, [rep])
        assert np.array_equal(out, rep)
        assert out is not rep

    def test_sums_deltas(self):
        ref = np.full((2, 2), 5, dtype=np.int32)
        r1 = ref.copy(); r1[0, 0] += 3
        r2 = ref.copy(); r2[0, 0] -= 2; r2[1, 1] += 1
        out = reconcile_phi(ref, [r1, r2])
        assert out[0, 0] == 6
        assert out[1, 1] == 6
        assert out[0, 1] == 5

    def test_negative_detected(self):
        ref = np.array([[1]], dtype=np.int32)
        r1 = np.array([[0]], dtype=np.int32)
        r2 = np.array([[0]], dtype=np.int32)
        with pytest.raises(AssertionError, match="negative"):
            reconcile_phi(ref, [r1, r2])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            reconcile_phi(np.zeros((2, 2)), [np.zeros((3, 2))])

    def test_empty_replicas(self):
        with pytest.raises(ValueError):
            reconcile_phi(np.zeros((1, 1)), [])

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=9999))
    def test_token_conservation(self, g, seed):
        """Total counts invariant: sum(phi_new) == sum(phi_ref)."""
        rng = np.random.default_rng(seed)
        k, v, n = 4, 6, 60
        z = rng.integers(0, k, size=n)
        w = rng.integers(0, v, size=n)
        ref = np.zeros((k, v), dtype=np.int64)
        np.add.at(ref, (z, w), 1)
        # each replica reassigns a disjoint slice of tokens
        reps = []
        bounds = np.linspace(0, n, g + 1).astype(int)
        for i in range(g):
            rep = ref.copy()
            sl = slice(bounds[i], bounds[i + 1])
            z_new = rng.integers(0, k, size=bounds[i + 1] - bounds[i])
            np.subtract.at(rep, (z[sl], w[sl]), 1)
            np.add.at(rep, (z_new, w[sl]), 1)
            reps.append(rep)
        out = reconcile_phi(ref, reps)
        assert int(out.sum()) == n
        assert np.all(out >= 0)

    @given(
        st.integers(min_value=1, max_value=3),
        st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=9999),
    )
    def test_prereduced_matches_replica_merge(self, w, owners, seed):
        """Per-worker summed deltas merge to the same bits as the replicas,
        however the G replicas are assigned to the W workers."""
        rng = np.random.default_rng(seed)
        k, v, n = 4, 6, 60
        z = rng.integers(0, k, size=n)
        words = rng.integers(0, v, size=n)
        ref = np.zeros((k, v), dtype=np.int32)
        np.add.at(ref, (z, words), 1)
        # each replica reassigns a disjoint slice of tokens
        bounds = np.linspace(0, n, len(owners) + 1).astype(int)
        per_worker = [np.zeros((k, v), dtype=np.int64) for _ in range(w)]
        replicas = []
        for g, owner in enumerate(owners):
            rep = ref.copy()
            sl = slice(bounds[g], bounds[g + 1])
            np.subtract.at(rep, (z[sl], words[sl]), 1)
            np.add.at(rep, (rng.integers(0, k, size=sl.stop - sl.start), words[sl]), 1)
            replicas.append(rep)
            per_worker[owner % w] += rep.astype(np.int64) - ref
        out = reconcile_prereduced(ref, per_worker)
        expected = reconcile_phi(ref, replicas)
        assert out.dtype == expected.dtype
        assert np.array_equal(out, expected)


class TestSimulatedSync:
    def test_single_gpu_no_cost(self):
        gpu = SimulatedGPU(0, TITAN_XP_PASCAL)
        t = simulate_phi_sync([gpu], 1_000_000)
        assert t == pytest.approx(0.0)

    def test_cost_grows_logarithmically(self):
        """log2(G) reduce steps (Section 5.2), not linear in G."""

        def sync_time(g):
            gpus = [SimulatedGPU(i, TITAN_XP_PASCAL) for i in range(g)]
            return simulate_phi_sync(gpus, 160_000_000)  # 160 MB replica

        t2, t4, t8 = sync_time(2), sync_time(4), sync_time(8)
        assert t2 < t4 < t8
        # tree: t4 ~ 2 levels, t8 ~ 3 levels; linear would be 3x/7x of t2.
        assert t4 / t2 < 2.5
        assert t8 / t2 < 4.0

    def test_negative_bytes(self):
        gpus = [SimulatedGPU(i, TITAN_XP_PASCAL) for i in range(2)]
        with pytest.raises(ValueError):
            simulate_phi_sync(gpus, -1)

    def test_no_devices(self):
        with pytest.raises(ValueError):
            simulate_phi_sync([], 10)


class TestSynchronize:
    def test_broadcast_in_place(self):
        ref = np.full((2, 3), 4, dtype=np.int32)
        r1 = ref.copy(); r1[0, 0] += 1
        r2 = ref.copy(); r2[1, 2] += 2; r2[0, 1] -= 1
        t1 = ref.sum(axis=1).astype(np.int64)
        phis = [r1, r2]
        totals = [t1.copy(), t1.copy()]
        phi_new, totals_new = synchronize(ref, phis, totals)
        assert np.array_equal(phis[0], phis[1])
        assert np.array_equal(phis[0], phi_new)
        assert np.array_equal(totals[0], phi_new.sum(axis=1))
        assert np.array_equal(totals_new, phi_new.sum(axis=1))

    def test_single_replica_is_the_reconciled_model(self):
        """One replica: the result equals the general path's, the replica
        is returned as is and its totals are refreshed."""
        ref = np.full((2, 3), 4, dtype=np.int32)
        rep = ref.copy(); rep[0, 0] += 2; rep[1, 2] -= 2
        totals = [np.zeros(2, dtype=np.int64)]
        phi_new, totals_new = synchronize(ref, [rep], totals)
        assert phi_new is rep
        assert np.array_equal(phi_new, reconcile_phi(ref, [rep.copy()]))
        assert np.array_equal(totals[0], rep.sum(axis=1))
        assert np.array_equal(totals_new, rep.sum(axis=1))

    def test_single_replica_keeps_its_checks(self):
        from repro import faults

        ref = np.full((2, 2), 1, dtype=np.int32)
        bad = ref.copy(); bad[0, 0] = -1
        with pytest.raises(AssertionError, match="negative count"):
            synchronize(ref, [bad], [np.zeros(2, dtype=np.int64)])
        faults.install("merge_fail")
        try:
            with pytest.raises(faults.FaultInjected):
                synchronize(ref, [ref.copy()], [np.zeros(2, dtype=np.int64)])
        finally:
            faults.reset()
