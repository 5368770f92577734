"""Execution traces: inspect and export the simulated timeline.

Every operation a :class:`~repro.gpusim.device.SimulatedGPU` schedules is
recorded as a :class:`TraceEvent` (name, engine, start, end).  The trace
answers the questions the paper's Section 5.1 overlap argument raises —
*did* the chunk transfers actually ride under compute? — and exports to
the Chrome ``chrome://tracing`` / Perfetto JSON format for visual
inspection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class TraceEvent:
    """One scheduled operation on one device engine."""

    device_id: int
    name: str  # kernel/transfer tag ("sampling", "transfer", ...)
    engine: str  # compute / copy_h2d / copy_d2h
    start: float  # seconds, shared simulated time domain
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def busy_time(events: list[TraceEvent], engine: str | None = None) -> float:
    """Union length of the events' intervals (per engine if given).

    This is *occupied* time, not summed durations — overlapping intervals
    count once, so ``busy_time / span`` is genuine utilisation.
    """
    ivals = sorted(
        (e.start, e.end) for e in events if engine is None or e.engine == engine
    )
    total = 0.0
    cur_start, cur_end = None, None
    for s, e in ivals:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def overlap_time(events: list[TraceEvent], engine_a: str, engine_b: str) -> float:
    """Total time during which both engines were simultaneously busy.

    The Section 5.1 payoff metric: ``overlap_time(trace, "compute",
    "copy_h2d")`` measures how much transfer actually hid under compute.
    """
    a = sorted((e.start, e.end) for e in events if e.engine == engine_a)
    b = sorted((e.start, e.end) for e in events if e.engine == engine_b)
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        s = max(a[i][0], b[j][0])
        e = min(a[i][1], b[j][1])
        if s < e:
            total += e - s
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def export_chrome_trace(events: list[TraceEvent], path: str | Path) -> None:
    """Write the events as a Chrome/Perfetto trace JSON file.

    Devices map to processes, engines to threads; timestamps are in
    microseconds as the format requires.
    """
    records = [
        {
            "name": e.name,
            "cat": e.engine,
            "ph": "X",
            "pid": e.device_id,
            "tid": e.engine,
            "ts": e.start * 1e6,
            "dur": e.duration * 1e6,
        }
        for e in events
    ]
    from repro.core.snapshot import atomic_write_text

    atomic_write_text(
        path, json.dumps({"traceEvents": records, "displayTimeUnit": "ms"})
    )
