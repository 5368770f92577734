"""Tests for roofline cost accounting."""

import pytest

from repro.gpusim.clock import (
    CostLedger,
    KernelCost,
    ZERO_COST,
    cpu_kernel_time,
    gpu_kernel_time,
)
from repro.gpusim.platform import V100_VOLTA, XEON_E5_2690_V4


class TestKernelCost:
    def test_add(self):
        a = KernelCost(1, 2, 3, 4)
        b = KernelCost(10, 20, 30, 40)
        c = a + b
        assert (c.bytes_read, c.bytes_written, c.flops, c.atomic_ops) == (11, 22, 33, 44)

    def test_scaled(self):
        c = KernelCost(2, 4, 6, 8).scaled(0.5)
        assert (c.bytes_read, c.bytes_written, c.flops, c.atomic_ops) == (1, 2, 3, 4)

    def test_scaled_negative(self):
        with pytest.raises(ValueError):
            KernelCost(1).scaled(-1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            KernelCost(bytes_read=-1)

    def test_flops_per_byte(self):
        assert KernelCost(bytes_read=8, flops=4).flops_per_byte == 0.5
        assert ZERO_COST.flops_per_byte == float("inf")


class TestGpuTime:
    def test_memory_bound_dominates(self):
        """LDA-like intensity: memory term decides the time."""
        cost = KernelCost(bytes_read=1e9, flops=0.27e9)
        t = gpu_kernel_time(V100_VOLTA, cost)
        expected_mem = 1e9 / V100_VOLTA.effective_bandwidth
        assert t == pytest.approx(
            V100_VOLTA.kernel_launch_us * 1e-6 + expected_mem, rel=1e-9
        )

    def test_compute_bound_when_intense(self):
        cost = KernelCost(bytes_read=1.0, flops=1e12)
        t = gpu_kernel_time(V100_VOLTA, cost)
        assert t > 1e12 / (V100_VOLTA.peak_gflops * 1e9)

    def test_launch_overhead_floor(self):
        t = gpu_kernel_time(V100_VOLTA, ZERO_COST)
        assert t == pytest.approx(V100_VOLTA.kernel_launch_us * 1e-6)

    def test_faster_device_is_faster(self):
        from repro.gpusim.platform import TITAN_X_MAXWELL

        cost = KernelCost(bytes_read=1e9)
        assert gpu_kernel_time(V100_VOLTA, cost) < gpu_kernel_time(
            TITAN_X_MAXWELL, cost
        )

    def test_atomics_charged(self):
        base = KernelCost(bytes_read=1e6)
        with_atomics = KernelCost(bytes_read=1e6, atomic_ops=1e9)
        assert gpu_kernel_time(V100_VOLTA, with_atomics) > gpu_kernel_time(
            V100_VOLTA, base
        )


class TestCpuTime:
    def test_bandwidth_factor_scales(self):
        cost = KernelCost(bytes_read=1e9)
        fast = cpu_kernel_time(XEON_E5_2690_V4, cost, bandwidth_factor=1.0)
        slow = cpu_kernel_time(XEON_E5_2690_V4, cost, bandwidth_factor=0.5)
        assert slow == pytest.approx(2 * fast)

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            cpu_kernel_time(XEON_E5_2690_V4, ZERO_COST, bandwidth_factor=0.0)
        with pytest.raises(ValueError):
            cpu_kernel_time(XEON_E5_2690_V4, ZERO_COST, bandwidth_factor=1.5)


class TestLedger:
    def test_charge_and_fractions(self):
        led = CostLedger()
        led.charge("sampling", KernelCost(bytes_read=100), 0.8)
        led.charge("update_phi", KernelCost(bytes_read=10), 0.2)
        total = sum(led.seconds.values())
        assert led.seconds["sampling"] / total == pytest.approx(0.8)
        assert led.seconds["update_phi"] / total == pytest.approx(0.2)

    def test_charge_accumulates(self):
        led = CostLedger()
        led.charge("k", KernelCost(flops=1), 0.1)
        led.charge("k", KernelCost(flops=2), 0.3)
        assert led.seconds["k"] == pytest.approx(0.4)
        assert led.costs["k"].flops == 3
        assert led.launches["k"] == 2

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            CostLedger().charge("k", ZERO_COST, -0.1)

    def test_merge(self):
        a = CostLedger()
        a.charge("k", KernelCost(flops=1), 0.1)
        b = CostLedger()
        b.charge("k", KernelCost(flops=2), 0.2)
        b.charge("j", KernelCost(flops=3), 0.3)
        a.merge(b)
        assert a.seconds["k"] == pytest.approx(0.3)
        assert a.launches["k"] == 2
        assert a.seconds["j"] == pytest.approx(0.3)
