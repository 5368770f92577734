"""SimulatedGPU: the device facade the trainer programs against.

A device couples a :class:`~repro.gpusim.spec.DeviceSpec` with a byte
-accurate memory allocator, an engine timeline and a cost ledger.  The
trainer uses it like a thin CUDA runtime:

    dev = SimulatedGPU(0, V100_VOLTA, PCIE_TOPOLOGY)
    s = dev.create_stream()
    dev.h2d("chunk[0]", chunk_bytes, stream=s)
    dev.launch("sampling", cost, stream=s)
    t = dev.sync()

Kernel *functionality* is not here — kernels are ordinary NumPy functions
in :mod:`repro.core`; the device only accounts for their simulated time.
This split mirrors a functional-first architecture simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpusim.clock import CostLedger, KernelCost, gpu_kernel_time
from repro.gpusim.interconnect import HostLinkTopology, PCIE_TOPOLOGY
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.spec import DeviceSpec
from repro.gpusim.stream import COMPUTE, COPY_D2H, COPY_H2D, Stream, Timeline
from repro.gpusim.trace import TraceEvent


@dataclass
class SimulatedGPU:
    """One simulated GPU in a shared time domain."""

    device_id: int
    spec: DeviceSpec
    topology: HostLinkTopology = field(default_factory=lambda: PCIE_TOPOLOGY)
    memory: DeviceMemory = field(init=False)
    timeline: Timeline = field(init=False)
    ledger: CostLedger = field(init=False)
    default_stream: Stream = field(init=False)

    trace: list[TraceEvent] = field(init=False)

    def __post_init__(self) -> None:
        self.memory = DeviceMemory(self.spec.memory_bytes)
        self.timeline = Timeline()
        self.ledger = CostLedger()
        self.default_stream = self.timeline.create_stream()
        self.trace = []

    # -- streams ----------------------------------------------------------

    def create_stream(self) -> Stream:
        """New asynchronous stream starting at the current device time."""
        return self.timeline.create_stream(at=0.0)

    # -- memory -----------------------------------------------------------

    def alloc(self, name: str, nbytes: int) -> None:
        """Reserve device memory (raises DeviceOutOfMemoryError if full)."""
        self.memory.alloc(name, nbytes)

    def free(self, name: str) -> None:
        self.memory.free(name)

    # -- work submission ---------------------------------------------------

    def launch(
        self,
        name: str,
        cost: KernelCost,
        stream: Stream | None = None,
        earliest: float = 0.0,
    ) -> float:
        """Launch a kernel; returns its simulated completion time."""
        stream = stream or self.default_stream
        dur = gpu_kernel_time(self.spec, cost)
        start, end = self.timeline.schedule(stream, COMPUTE, dur, earliest)
        self.ledger.charge(name, cost, dur)
        self.trace.append(TraceEvent(self.device_id, name, COMPUTE, start, end))
        return end

    def h2d(
        self,
        name: str,
        nbytes: float,
        stream: Stream | None = None,
        earliest: float = 0.0,
    ) -> float:
        """Host-to-device copy over the host link; returns completion time."""
        stream = stream or self.default_stream
        dur = self.topology.h2d_time(nbytes)
        start, end = self.timeline.schedule(stream, COPY_H2D, dur, earliest)
        self.ledger.charge(name, KernelCost(bytes_written=nbytes), dur)
        self.trace.append(TraceEvent(self.device_id, name, COPY_H2D, start, end))
        return end

    def d2h(
        self,
        name: str,
        nbytes: float,
        stream: Stream | None = None,
        earliest: float = 0.0,
    ) -> float:
        """Device-to-host copy; returns completion time."""
        stream = stream or self.default_stream
        dur = self.topology.d2h_time(nbytes)
        start, end = self.timeline.schedule(stream, COPY_D2H, dur, earliest)
        self.ledger.charge(name, KernelCost(bytes_read=nbytes), dur)
        self.trace.append(TraceEvent(self.device_id, name, COPY_D2H, start, end))
        return end

    def sync(self) -> float:
        """Device-wide synchronize; returns the idle time."""
        return self.timeline.device_time()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SimulatedGPU(id={self.device_id}, {self.spec.name})"


def p2p_copy(
    src: SimulatedGPU,
    dst: SimulatedGPU,
    nbytes: float,
    name: str = "sync",
    src_stream: Stream | None = None,
    dst_stream: Stream | None = None,
) -> float:
    """Peer-to-peer copy between two devices (Figure 4 reduce/broadcast).

    The copy occupies the source's D2H engine and the destination's H2D
    engine for the same interval (a peer copy crosses the shared bus), and
    starts only when *both* sides are ready.  Returns the completion time
    and leaves both streams at it.
    """
    if src is dst:
        raise ValueError("p2p copy requires distinct devices")
    src_stream = src_stream or src.default_stream
    dst_stream = dst_stream or dst.default_stream
    dur = src.topology.p2p_time(nbytes)
    ready = max(
        src_stream.cursor,
        dst_stream.cursor,
        src.timeline.engines[COPY_D2H],
        dst.timeline.engines[COPY_H2D],
    )
    s0, _ = src.timeline.schedule(src_stream, COPY_D2H, dur, earliest=ready)
    _, end = dst.timeline.schedule(dst_stream, COPY_H2D, dur, earliest=ready)
    src_stream.cursor = end
    dst_stream.cursor = end
    src.ledger.charge(name, KernelCost(bytes_read=nbytes), dur)
    src.trace.append(TraceEvent(src.device_id, name, COPY_D2H, s0, end))
    dst.trace.append(TraceEvent(dst.device_id, name, COPY_H2D, s0, end))
    return end
