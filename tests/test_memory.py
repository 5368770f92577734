"""Tests for device memory capacity enforcement (Section 5.1 constraint)."""

import pytest

from repro.gpusim.memory import DeviceMemory, DeviceOutOfMemoryError


class TestAllocator:
    def test_alloc_free_cycle(self):
        mem = DeviceMemory(1000)
        mem.alloc("a", 400)
        assert mem.used_bytes == 400
        assert mem.free_bytes == 600
        mem.free("a")
        assert mem.used_bytes == 0

    def test_capacity_enforced(self):
        mem = DeviceMemory(1000)
        mem.alloc("a", 800)
        with pytest.raises(DeviceOutOfMemoryError, match="exceeds device"):
            mem.alloc("b", 300)

    def test_oom_is_memory_error(self):
        """cudaMalloc failure analogue should be catchable as MemoryError."""
        mem = DeviceMemory(10)
        with pytest.raises(MemoryError):
            mem.alloc("x", 11)

    def test_exact_fit_allowed(self):
        mem = DeviceMemory(100)
        mem.alloc("a", 100)
        assert mem.free_bytes == 0

    def test_duplicate_name_rejected(self):
        mem = DeviceMemory(100)
        mem.alloc("a", 10)
        with pytest.raises(ValueError, match="already exists"):
            mem.alloc("a", 10)

    def test_free_unknown(self):
        with pytest.raises(KeyError):
            DeviceMemory(10).free("ghost")

    def test_negative_size(self):
        with pytest.raises(ValueError):
            DeviceMemory(10).alloc("a", -1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            DeviceMemory(0)

    def test_has(self):
        mem = DeviceMemory(100)
        mem.alloc("x", 1)
        assert mem.has("x") and not mem.has("y")
