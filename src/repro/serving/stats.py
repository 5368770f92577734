"""Per-request latency accounting for the serving tier.

Every completed request contributes two numbers: ``queue_wait`` (enqueue
to dispatch — how long the coalescer held it) and ``service`` (dispatch
to completion — the inference call it rode in).  :class:`LatencyStats`
keeps a bounded window of recent samples plus lifetime counters, and
snapshots p50/p99/mean/max per component — the numbers the ``stats``
protocol op reports.
"""

from __future__ import annotations

from collections import deque
from typing import Any

import numpy as np

__all__ = ["LatencyStats", "quantiles"]

#: Samples retained per latency component; old samples age out so a
#: long-lived server reports recent behaviour, not its whole lifetime.
DEFAULT_WINDOW = 4096


def quantiles(samples: deque[float] | list[float]) -> dict[str, float] | None:
    """p50/p99/mean/max of a sample window (None when empty)."""
    if not samples:
        return None
    arr = np.asarray(samples, dtype=np.float64)
    return {
        "p50": float(np.percentile(arr, 50)),
        "p99": float(np.percentile(arr, 99)),
        "mean": float(arr.mean()),
        "max": float(arr.max()),
    }


class LatencyStats:
    """Lifetime counters + windowed latency quantiles for one server."""

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)
        self._queue_wait: deque[float] = deque(maxlen=self.window)
        self._service: deque[float] = deque(maxlen=self.window)
        self._total: deque[float] = deque(maxlen=self.window)
        self.completed = 0
        self.busy_rejected = 0
        self.errors = 0
        self.swaps = 0
        self.swaps_rejected = 0
        self.shed_expired = 0
        self.deadline_exceeded = 0
        self.circuit_rejected = 0
        self.watchdog_fired = 0

    def record(self, queue_wait_s: float, service_s: float) -> None:
        """One completed request: its wait and the service span it rode."""
        self.completed += 1
        self._queue_wait.append(float(queue_wait_s))
        self._service.append(float(service_s))
        self._total.append(float(queue_wait_s) + float(service_s))

    def record_busy(self) -> None:
        self.busy_rejected += 1

    def record_error(self) -> None:
        self.errors += 1

    def record_swap(self) -> None:
        self.swaps += 1

    def record_swap_rejected(self) -> None:
        """A ``swap`` refused (corrupt/invalid artifact); still serving."""
        self.swaps_rejected += 1

    def record_shed(self) -> None:
        """A queued request evicted because its deadline already passed."""
        self.shed_expired += 1

    def record_deadline_exceeded(self) -> None:
        """A dispatched request answered ``deadline_exceeded``."""
        self.deadline_exceeded += 1

    def record_circuit_rejected(self) -> None:
        """Admission refused by an open circuit breaker."""
        self.circuit_rejected += 1

    def record_watchdog(self) -> None:
        """The dispatch watchdog fired (inference pool torn down)."""
        self.watchdog_fired += 1

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready digest: counters plus windowed quantiles."""
        return {
            "completed": self.completed,
            "busy_rejected": self.busy_rejected,
            "errors": self.errors,
            "swaps": self.swaps,
            "swaps_rejected": self.swaps_rejected,
            "shed_expired": self.shed_expired,
            "deadline_exceeded": self.deadline_exceeded,
            "circuit_rejected": self.circuit_rejected,
            "watchdog_fired": self.watchdog_fired,
            "window": self.window,
            "window_samples": len(self._total),
            "queue_wait_s": quantiles(self._queue_wait),
            "service_s": quantiles(self._service),
            "total_s": quantiles(self._total),
        }
