"""Shared-memory array arena for the process execution engine.

The parallel engine moves *no* bulk data through pickles: every large
array an OS worker touches — chunk token arrays, topic assignments,
theta CSR buffers, per-replica phi/totals count matrices — lives in one
``multiprocessing.shared_memory`` block that master and workers map into
their address spaces.  :class:`ShmArena` is the allocator over that
block: a named layout of typed arrays, computed once on the master,
shipped to workers as a small picklable :class:`ArenaLayout`, and
materialised on both sides as NumPy views of the same physical pages.

Lifecycle: the master ``create()``s the arena and ``unlink()``s it on
shutdown; workers ``attach()`` by name and only ``close()`` their
mapping.  A finalizer backstops unlink so an abandoned trainer cannot
leak ``/dev/shm`` segments for the life of the machine.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import weakref
from dataclasses import dataclass
from math import prod
from multiprocessing import shared_memory

import numpy as np

__all__ = ["ArenaLayout", "ArraySpec", "ShmArena", "pick_context"]


def pick_context() -> mp.context.BaseContext:
    """Start-method context shared by every arena-backed worker pool.

    ``fork`` where available (cheap start; no inherited state is relied
    on — workers get everything via a pickled plan), else ``spawn``.
    """
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context("spawn")  # pragma: no cover - non-POSIX

#: Byte alignment of every array in the block (cache-line friendly).
_ALIGN = 64


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class ArraySpec:
    """One named array inside the block: shape, dtype and byte offset."""

    name: str
    shape: tuple[int, ...]
    dtype: str  # np.dtype string, picklable
    offset: int

    @property
    def nbytes(self) -> int:
        return prod(self.shape) * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class ArenaLayout:
    """Picklable description workers use to attach to the master's block."""

    shm_name: str
    total_bytes: int
    arrays: tuple[ArraySpec, ...]


def _plan_layout(
    specs: dict[str, tuple[tuple[int, ...], np.dtype]],
) -> tuple[list[ArraySpec], int]:
    arrays: list[ArraySpec] = []
    offset = 0
    for name, (shape, dtype) in specs.items():
        dt = np.dtype(dtype)
        arrays.append(ArraySpec(name=name, shape=tuple(shape), dtype=dt.str, offset=offset))
        offset += _aligned(int(prod(shape)) * dt.itemsize)
    return arrays, max(offset, 1)


class ShmArena:
    """A named set of NumPy arrays backed by one shared-memory block."""

    def __init__(self, shm: shared_memory.SharedMemory, layout: ArenaLayout, owner: bool):
        self._shm = shm
        self.layout = layout
        self._owner = owner
        self._views: dict[str, np.ndarray] = {}
        for spec in layout.arrays:
            dt = np.dtype(spec.dtype)
            n = prod(spec.shape)
            flat = np.frombuffer(
                shm.buf, dtype=dt, count=n, offset=spec.offset
            )
            self._views[spec.name] = flat.reshape(spec.shape)
        if owner:
            # Backstop only: normal shutdown goes through close()/unlink().
            self._finalizer = weakref.finalize(self, _finalize_arena, shm)
        else:
            self._finalizer = None

    # -- construction -----------------------------------------------------

    @classmethod
    def create(
        cls, specs: dict[str, tuple[tuple[int, ...], np.dtype]]
    ) -> ShmArena:
        """Allocate a fresh block sized for ``specs`` (master side)."""
        arrays, total = _plan_layout(specs)
        shm = shared_memory.SharedMemory(create=True, size=total)
        layout = ArenaLayout(
            shm_name=shm.name, total_bytes=total, arrays=tuple(arrays)
        )
        return cls(shm, layout, owner=True)

    @classmethod
    def attach(cls, layout: ArenaLayout) -> ShmArena:
        """Map an existing block created elsewhere (worker side).

        Workers are always children of the creating process, so they
        share its multiprocessing resource tracker: the attach-side
        re-registration is a set no-op there, and the single unlink on
        the master settles the books.  (Attaching from an *unrelated*
        process would need the pre-3.13 unregister workaround.)
        """
        shm = shared_memory.SharedMemory(name=layout.shm_name)
        return cls(shm, layout, owner=False)

    # -- access -----------------------------------------------------------

    def view(self, name: str) -> np.ndarray:
        """The named array, mapping the shared pages (no copy)."""
        return self._views[name]

    @property
    def nbytes(self) -> int:
        return self.layout.total_bytes

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (views become invalid).

        An exception that unwound out of the owner (e.g. an interrupted
        overlapped train) can leave arena views alive in traceback
        cycles, and the unmap then raises ``BufferError``.  Only then are
        those cycles collected and the unmap tried once more.
        """
        self._views.clear()
        try:
            self._shm.close()
        except BufferError:
            gc.collect()
            try:
                self._shm.close()
            except Exception:  # pragma: no cover - still exported
                pass
        except Exception:  # pragma: no cover - double close is harmless
            pass

    def unlink(self) -> None:
        """Destroy the segment (master only; call after close)."""
        if not self._owner:
            return
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def _finalize_arena(shm: shared_memory.SharedMemory) -> None:
    """GC/exit backstop for an owner arena that was never closed."""
    try:  # pragma: no cover - only hit on abandoned arenas
        shm.close()
        shm.unlink()
    except Exception:
        pass
