"""Streams and engine timelines (Section 5.1 overlap machinery).

``WorkSchedule2`` pipelines chunk ``m+1``'s transfer with chunk ``m``'s
computation using CUDA streams.  The simulator reproduces the semantics
with a discrete timeline per device:

- every device has independent **engines** (compute, H2D copy, D2H copy) —
  operations on different engines overlap, operations on the same engine
  serialize (one DMA engine per direction, one kernel at a time, matching
  "By default, a GPU executes one kernel at a time");
- a **stream** serializes the operations submitted to it regardless of
  engine — exactly CUDA stream ordering.

All cursors live in one shared simulated time domain (seconds), so
cross-device coordination (peer copies, host barriers) is just max().
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Engine names every device timeline exposes.
COMPUTE = "compute"
COPY_H2D = "copy_h2d"
COPY_D2H = "copy_d2h"

ENGINES = (COMPUTE, COPY_H2D, COPY_D2H)


@dataclass
class Stream:
    """An ordered submission queue (cf. ``cudaStream_t``)."""

    stream_id: int
    cursor: float = 0.0


@dataclass
class Timeline:
    """Per-device engine cursors in a shared simulated time domain."""

    engines: dict[str, float] = field(default_factory=lambda: dict.fromkeys(ENGINES, 0.0))
    _next_stream: int = 0

    def create_stream(self, at: float = 0.0) -> Stream:
        s = Stream(self._next_stream, cursor=at)
        self._next_stream += 1
        return s

    def schedule(
        self,
        stream: Stream,
        engine: str,
        duration: float,
        earliest: float = 0.0,
    ) -> tuple[float, float]:
        """Place an operation of ``duration`` seconds on ``engine``.

        Start time is the latest of: the stream's program order, the
        engine's availability, and ``earliest`` (used for cross-device
        dependencies).  Returns ``(start, end)``.
        """
        if engine not in self.engines:
            raise KeyError(f"unknown engine {engine!r}; have {list(self.engines)}")
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        start = max(stream.cursor, self.engines[engine], earliest)
        end = start + duration
        stream.cursor = end
        self.engines[engine] = end
        return start, end

    def device_time(self) -> float:
        """Time at which every engine is idle (device-wide sync point)."""
        return max(self.engines.values())

    def advance_to(self, t: float) -> None:
        """Move every engine cursor forward to at least ``t`` (barrier)."""
        for k in self.engines:
            self.engines[k] = max(self.engines[k], t)


def barrier(timelines: list[Timeline]) -> float:
    """Host-side barrier across devices.

    Returns the barrier time and advances every timeline to it — this is
    the "after all GPUs finish their execution" synchronization point of
    Algorithm 1 (line 13/31).
    """
    if not timelines:
        raise ValueError("barrier over no timelines")
    t = max(tl.device_time() for tl in timelines)
    for tl in timelines:
        tl.advance_to(t)
    return t
