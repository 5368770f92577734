"""Tests for the cache models (Section 3.2 behaviour)."""

import pytest

from repro.gpusim.cache import cpu_cache_bandwidth_factor, gpu_l1_index_factor
from repro.gpusim.platform import TITAN_X_MAXWELL, V100_VOLTA, XEON_E5_2690_V4


class TestCpuCache:
    def test_small_working_set_beats_dram(self):
        f = cpu_cache_bandwidth_factor(XEON_E5_2690_V4, 1e6)
        assert f > 1.0

    def test_large_working_set_approaches_dram(self):
        """The paper's CPU scalability wall: big data erases cache gains."""
        f = cpu_cache_bandwidth_factor(XEON_E5_2690_V4, 100e9)
        assert 1.0 <= f < 1.01

    def test_monotone_decreasing(self):
        sizes = [1e6, 1e8, 1e9, 1e10, 1e11]
        factors = [cpu_cache_bandwidth_factor(XEON_E5_2690_V4, s) for s in sizes]
        assert factors == sorted(factors, reverse=True)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cpu_cache_bandwidth_factor(XEON_E5_2690_V4, -1)


class TestGpuL1:
    def test_fitting_indices_mostly_free(self):
        assert gpu_l1_index_factor(V100_VOLTA, 1024) == pytest.approx(0.25)

    def test_spilling_indices_charged(self):
        f = gpu_l1_index_factor(V100_VOLTA, 100e6)
        assert 0.99 < f <= 1.0

    def test_monotone(self):
        f_small = gpu_l1_index_factor(V100_VOLTA, 10e3)
        f_large = gpu_l1_index_factor(V100_VOLTA, 10e6)
        assert f_small <= f_large

    def test_bigger_l1_helps(self):
        """Volta's larger L1 (Section 7.1) keeps more index traffic cheap."""
        ws = 60e3  # between Maxwell's 24KB and Volta's 128KB
        assert gpu_l1_index_factor(V100_VOLTA, ws) < gpu_l1_index_factor(
            TITAN_X_MAXWELL, ws
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gpu_l1_index_factor(V100_VOLTA, -1)
