"""Tests for interconnect models and the Figure 4 reduce/broadcast trees."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gpusim.interconnect import (
    ETHERNET_10G,
    Link,
    NVLINK,
    PCIE_3,
    broadcast_pairs,
    tree_reduce_pairs,
)


class TestLinks:
    def test_paper_bandwidths(self):
        assert PCIE_3.bandwidth_gbps == 16.0  # "up to 16GB/s"
        assert NVLINK.bandwidth_gbps == 300.0  # "up to 300GB/s"
        assert ETHERNET_10G.bandwidth_gbps == 1.25  # 10 Gb/s = 1.25 GB/s

    def test_transfer_time_linear(self):
        t1 = PCIE_3.transfer_time(16e9)
        assert t1 == pytest.approx(1.0 + PCIE_3.latency_us * 1e-6, rel=1e-6)

    def test_latency_floor(self):
        assert PCIE_3.transfer_time(0) == pytest.approx(PCIE_3.latency_us * 1e-6)

    def test_negative_bytes(self):
        with pytest.raises(ValueError):
            PCIE_3.transfer_time(-1)

    def test_invalid_link(self):
        with pytest.raises(ValueError):
            Link("x", bandwidth_gbps=0)
        with pytest.raises(ValueError):
            Link("x", bandwidth_gbps=1, latency_us=-1)

    def test_ordering_matches_paper_argument(self):
        """PCIe must beat 10GbE by a wide margin (Section 3.2)."""
        nbytes = 1e9
        assert PCIE_3.transfer_time(nbytes) < ETHERNET_10G.transfer_time(nbytes) / 10
        assert NVLINK.transfer_time(nbytes) < PCIE_3.transfer_time(nbytes)


class TestReduceTree:
    def test_figure4_example(self):
        """G=4: step 1 = {1->0, 3->2}, step 2 = {2->0} (Figure 4)."""
        steps = tree_reduce_pairs(4)
        assert steps == [[(1, 0), (3, 2)], [(2, 0)]]

    def test_broadcast_is_reverse(self):
        assert broadcast_pairs(4) == [[(0, 2)], [(0, 1), (2, 3)]]

    def test_single_device(self):
        assert tree_reduce_pairs(1) == []

    def test_two_devices(self):
        assert tree_reduce_pairs(2) == [[(1, 0)]]

    def test_non_power_of_two(self):
        steps = tree_reduce_pairs(3)
        assert steps == [[(1, 0)], [(2, 0)]]

    def test_log_steps(self):
        """Section 5.2: 'the computation complexity of reduction is log G'."""
        assert len(tree_reduce_pairs(4)) == 2
        assert len(tree_reduce_pairs(8)) == 3
        assert len(tree_reduce_pairs(5)) == 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            tree_reduce_pairs(0)

    @given(st.integers(min_value=1, max_value=32))
    def test_every_device_contributes_once(self, g):
        """Each non-root device sends exactly once; root receives all mass."""
        senders = [src for step in tree_reduce_pairs(g) for src, _ in step]
        assert sorted(senders) == list(range(1, g))

    @given(st.integers(min_value=1, max_value=32))
    def test_broadcast_reaches_everyone(self, g):
        reached = {0}
        for step in broadcast_pairs(g):
            for src, dst in step:
                assert src in reached  # sender must already have the data
                reached.add(dst)
        assert reached == set(range(g))

    @given(st.integers(min_value=1, max_value=32))
    def test_steps_within_level_are_disjoint(self, g):
        for step in tree_reduce_pairs(g):
            touched = [d for pair in step for d in pair]
            assert len(touched) == len(set(touched))
