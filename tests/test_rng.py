"""Tests for deterministic partitionable RNG streams."""

import numpy as np
import pytest

from repro.core.rng import RngPool


class TestRngPool:
    def test_reproducible(self):
        a = RngPool(42).chunk_stream(3, 1).random(8)
        b = RngPool(42).chunk_stream(3, 1).random(8)
        assert np.array_equal(a, b)

    def test_streams_independent_across_chunks(self):
        pool = RngPool(0)
        a = pool.chunk_stream(0, 0).random(8)
        b = pool.chunk_stream(0, 1).random(8)
        assert not np.array_equal(a, b)

    def test_streams_independent_across_iterations(self):
        pool = RngPool(0)
        a = pool.chunk_stream(0, 0).random(8)
        b = pool.chunk_stream(1, 0).random(8)
        assert not np.array_equal(a, b)

    def test_init_stream_differs_from_chunk_streams(self):
        pool = RngPool(0)
        a = pool.init_stream().random(8)
        b = pool.chunk_stream(0, 0).random(8)
        assert not np.array_equal(a, b)

    def test_schedule_invariance(self):
        """Draws keyed by (iteration, chunk) do not depend on call order."""
        p1 = RngPool(7)
        first = p1.chunk_stream(0, 1).random(4)
        p2 = RngPool(7)
        _ = p2.chunk_stream(0, 0).random(4)  # consume another stream first
        second = p2.chunk_stream(0, 1).random(4)
        assert np.array_equal(first, second)

    def test_seeds_differ(self):
        a = RngPool(1).chunk_stream(0, 0).random(8)
        b = RngPool(2).chunk_stream(0, 0).random(8)
        assert not np.array_equal(a, b)

    def test_negative_keys_rejected(self):
        pool = RngPool(0)
        with pytest.raises(ValueError):
            pool.chunk_stream(-1, 0)

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngPool("abc")  # type: ignore[arg-type]

    def test_seed_property(self):
        assert RngPool(9).seed == 9
