"""Deterministic, partitionable random streams.

GPU LDA samplers need one independent RNG per sampler (warp); the
reproduction needs runs to be bit-reproducible across chunk counts and
GPU counts so tests can compare configurations.  NumPy's ``SeedSequence``
spawning gives exactly that: every (run seed, iteration, chunk) triple
maps to an independent, reproducible stream regardless of the order in
which chunks execute or which simulated device they land on.
"""

from __future__ import annotations

import numpy as np


class RngPool:
    """Derives independent per-(iteration, chunk) generators from one seed.

    Two pools with the same seed produce identical streams; streams for
    different (iteration, chunk) keys are statistically independent
    (SeedSequence guarantees).  This makes multi-GPU runs reproducible and
    *schedule-invariant*: GPU assignment order cannot change the draws.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        return self._seed

    def chunk_stream(self, iteration: int, chunk_id: int) -> np.random.Generator:
        """Generator for sampling chunk ``chunk_id`` at ``iteration``."""
        if iteration < 0 or chunk_id < 0:
            raise ValueError("iteration and chunk_id must be non-negative")
        ss = np.random.SeedSequence(
            entropy=self._seed, spawn_key=(1, iteration, chunk_id)
        )
        return np.random.default_rng(ss)

    def init_stream(self) -> np.random.Generator:
        """Generator for the random topic initialisation."""
        ss = np.random.SeedSequence(entropy=self._seed, spawn_key=(0,))
        return np.random.default_rng(ss)
