"""Device memory management with capacity enforcement.

The paper's Section 5.1 constraint — *"when deciding the value of M, we
need to make sure that one GPU's memory can accommodate at least one data
chunk"* (two chunks when overlapping transfers) — only bites if the
simulator actually enforces capacity.  This allocator does: every chunk,
model replica and staging buffer the trainer places on a device is
registered here, and exceeding capacity raises
:class:`DeviceOutOfMemoryError` exactly as ``cudaMalloc`` would fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class DeviceOutOfMemoryError(MemoryError):
    """Raised when an allocation would exceed device capacity."""


@dataclass
class Allocation:
    """One named allocation on a device."""

    name: str
    nbytes: int


@dataclass
class DeviceMemory:
    """Byte-accurate bookkeeping of one device's memory.

    Allocations are named so tests and error messages can say *what* blew
    the budget ("chunk[3]", "phi_replica", "staging[1]").
    """

    capacity_bytes: int
    _allocs: dict[str, Allocation] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity_bytes}")

    @property
    def used_bytes(self) -> int:
        return sum(a.nbytes for a in self._allocs.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def alloc(self, name: str, nbytes: int) -> Allocation:
        """Reserve ``nbytes`` under ``name``.

        Raises
        ------
        DeviceOutOfMemoryError
            If the allocation does not fit.
        ValueError
            If the name is already in use or nbytes is negative.
        """
        if nbytes < 0:
            raise ValueError(f"allocation size must be non-negative, got {nbytes}")
        if name in self._allocs:
            raise ValueError(f"allocation {name!r} already exists")
        if nbytes > self.free_bytes:
            raise DeviceOutOfMemoryError(
                f"allocating {name!r} ({nbytes / 1e9:.3f} GB) exceeds device "
                f"capacity: {self.used_bytes / 1e9:.3f} GB used of "
                f"{self.capacity_bytes / 1e9:.3f} GB"
            )
        a = Allocation(name, nbytes)
        self._allocs[name] = a
        return a

    def free(self, name: str) -> None:
        """Release the allocation registered under ``name``."""
        if name not in self._allocs:
            raise KeyError(f"no allocation named {name!r}")
        del self._allocs[name]

    def has(self, name: str) -> bool:
        return name in self._allocs

