"""Reusable buffer pool for the sampling kernels.

One :class:`Workspace` lives per executor process: every simulated
device a process runs (see ``repro.core.scheduler.DeviceState``) draws
from it, because those devices run one after another and no buffer is
live from one chunk pass to the next.  It hands out preallocated arrays
keyed by a *role* string.  A buffer that must grow is reallocated at
exactly the size asked for and is never shrunk, so after the first
iteration over the process's chunks every ``take`` is a slice of an
existing allocation that fits the largest chunk — the paper's static
device buffers, sized once.

Contract
--------
- A role names one logical temporary; two roles never alias.  Callers
  must not hold a role's array across a second ``take`` of the same
  role.
- Returned arrays are **uninitialised** (like ``np.empty``); use
  :meth:`Workspace.zeros` when the kernel relies on zero-fill.
- A take without a dtype is ``float64``, the training kernel's one
  dtype; fold-in names its own dtypes.
- ``memo`` caches immutable derived data (e.g. a chunk's present-word
  list) keyed by caller-chosen hashables; it is the workspace-scoped
  equivalent of the CPU-side preprocessing the paper performs once per
  chunk.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from math import prod
from typing import Any

import numpy as np

__all__ = ["Workspace"]

_F64 = np.dtype(np.float64)


class Workspace:
    """Grow-only arena of named scratch buffers."""

    def __init__(self):
        self._pool: dict[tuple[str, str], np.ndarray] = {}
        self._memo: dict[Hashable, Any] = {}
        self._arange = np.arange(0, dtype=np.int64)
        #: takes served from an existing buffer / takes that (re)allocated
        self.hits = 0
        self.misses = 0

    # -- buffers ---------------------------------------------------------

    def take(
        self,
        role: str,
        shape: int | tuple[int, ...],
        dtype: np.dtype | str = _F64,
    ) -> np.ndarray:
        """Uninitialised array of ``shape`` for ``role`` (pool-backed).

        This sits on the per-chunk-call hot path (a sampling pass takes
        ~50 buffers), so the common cases — an ``int`` shape and a
        ``np.dtype`` instance — are handled without any normalisation
        work.
        """
        if type(shape) is tuple:
            n = prod(shape)
        else:
            n = shape = int(shape)
        dt = dtype if isinstance(dtype, np.dtype) else np.dtype(dtype)
        key = (role, dt)
        buf = self._pool.get(key)
        if buf is None or buf.size < n:
            buf = np.empty(n, dtype=dt)
            self._pool[key] = buf
            self.misses += 1
        else:
            self.hits += 1
        out = buf[:n]
        if type(shape) is tuple:
            return out.reshape(shape)
        return out

    def zeros(
        self,
        role: str,
        shape: int | tuple[int, ...],
        dtype: np.dtype | str = _F64,
    ) -> np.ndarray:
        """Like :meth:`take` but zero-filled."""
        out = self.take(role, shape, dtype)
        out[...] = 0
        return out

    def arange(self, n: int) -> np.ndarray:
        """Read-only ``int64`` ramp ``[0, n)`` (shared, grown on demand)."""
        n = int(n)
        if self._arange.shape[0] < n:
            ramp = np.arange(n, dtype=np.int64)
            ramp.setflags(write=False)
            self._arange = ramp
        return self._arange[:n]

    # -- memoised derived data ------------------------------------------

    def memo(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """Return ``build()`` cached under ``key`` (immutable data only)."""
        try:
            return self._memo[key]
        except KeyError:
            value = build()
            self._memo[key] = value
            return value

    # -- introspection ---------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the pool (excluding memos)."""
        return sum(b.nbytes for b in self._pool.values()) + self._arange.nbytes

    def describe(self) -> dict:
        """Pool occupancy and reuse counters (for perf reports)."""
        return {
            "roles": len(self._pool),
            "nbytes": self.nbytes,
            "hits": self.hits,
            "misses": self.misses,
            "memo_entries": len(self._memo),
        }

    def clear(self) -> None:
        """Drop every buffer and memo (frees memory)."""
        self._pool.clear()
        self._memo.clear()
        self._arange = np.arange(0, dtype=np.int64)
        self.hits = 0
        self.misses = 0
