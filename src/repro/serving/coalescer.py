"""The batch coalescer: fold concurrent requests into one dispatch.

The serving engine (:meth:`~repro.model.InferenceSession.transform_many`)
is fastest when it folds many documents in per call — one set of
batches sized for the worker pool.  Concurrent clients each
bring a handful of documents, so the server queues them here and a
single drain loop dispatches **everything currently pending as one
coalesced call**: requests that arrive while a dispatch is running
accumulate and ride the next one.  Under light load a request dispatches
alone immediately; under heavy load dispatches grow to whatever
accumulated, which is exactly the batch-narrowing sweet spot — the
engine splits the coalesced document set evenly over its workers.

Admission control is a bounded queue: :meth:`BatchCoalescer.submit`
refuses (returns False) once ``max_pending`` requests are waiting, and
the server turns that refusal into a typed ``busy`` response.  Overload
therefore degrades into fast, explicit rejections instead of unbounded
buffering — degraded service is a first-class state, not a crash.

Deadline-aware load shedding: a request may carry an absolute
``deadline_at`` (event-loop clock).  Entries whose deadline has already
passed are evicted **oldest first** — before each dispatch (no inference
work is wasted on an answer nobody is waiting for) and, under pressure,
at admission time (expired entries make room for a fresh request instead
of bouncing it with ``busy``).  Evicted requests go to the server's
``on_expired`` callback, which answers them with a typed
``deadline_exceeded`` response.
"""

from __future__ import annotations

import asyncio
from collections import deque
from collections.abc import Awaitable, Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["PendingRequest", "BatchCoalescer", "DEFAULT_MAX_PENDING"]

#: Default admission-control depth (queued requests, not documents).
DEFAULT_MAX_PENDING = 64


@dataclass
class PendingRequest:
    """One client request waiting for (or riding) a coalesced dispatch."""

    docs: list[np.ndarray]
    seed: int
    future: asyncio.Future
    enqueued_at: float
    request_id: Any = None
    #: Absolute event-loop time after which the client has given up;
    #: ``None`` = no deadline (wait as long as it takes).
    deadline_at: float | None = None
    meta: dict = field(default_factory=dict)

    def expired(self, now: float) -> bool:
        return self.deadline_at is not None and now >= self.deadline_at

    @property
    def num_docs(self) -> int:
        return len(self.docs)


class BatchCoalescer:
    """Admission-controlled queue draining into coalesced dispatches.

    Parameters
    ----------
    dispatch:
        ``async (list[PendingRequest]) -> None``; must resolve every
        request's future (result or exception).  Called from a single
        drain task, so dispatches never overlap — the engine runs one
        coalesced inference at a time and pending work accumulates
        behind it.
    max_pending:
        Queue depth above which :meth:`submit` refuses.
    on_expired:
        ``(PendingRequest) -> None`` invoked for every queue entry shed
        because its ``deadline_at`` passed; must resolve the request's
        future.  ``None`` disables shedding (deadlines then only bound
        the dispatch itself).
    """

    def __init__(
        self,
        dispatch: Callable[[list[PendingRequest]], Awaitable[None]],
        max_pending: int = DEFAULT_MAX_PENDING,
        on_expired: Callable[[PendingRequest], None] | None = None,
    ):
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        self._dispatch = dispatch
        self.max_pending = int(max_pending)
        self._on_expired = on_expired
        self._pending: deque[PendingRequest] = deque()
        self._wakeup = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._closed = False

    # -- producer side ------------------------------------------------------

    @property
    def depth(self) -> int:
        """Requests currently queued (excludes the dispatch in flight)."""
        return len(self._pending)

    def submit(self, request: PendingRequest) -> bool:
        """Enqueue; False when the queue is at ``max_pending`` (busy).

        A full queue first sheds already-expired entries: a fresh
        request displacing work whose deadline has passed is strictly
        better than bouncing it while dead work occupies the queue.
        """
        if self._closed:
            raise RuntimeError("coalescer is closed")
        if len(self._pending) >= self.max_pending:
            self.shed_expired()
        if len(self._pending) >= self.max_pending:
            return False
        self._pending.append(request)
        self._wakeup.set()
        return True

    def shed_expired(self) -> int:
        """Evict queued entries whose deadline passed, oldest first.

        Each evicted request is handed to ``on_expired`` (which answers
        it); returns how many were shed.  No-op without the callback.
        """
        if self._on_expired is None or not self._pending:
            return 0
        now = asyncio.get_running_loop().time()
        shed = 0
        survivors: deque[PendingRequest] = deque()
        while self._pending:
            req = self._pending.popleft()  # oldest first
            if req.expired(now) and not req.future.done():
                self._on_expired(req)
                shed += 1
            else:
                survivors.append(req)
        self._pending = survivors
        return shed

    # -- drain loop ---------------------------------------------------------

    def start(self) -> None:
        """Start the drain task on the running loop (idempotent)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="repro-serving-coalescer"
            )

    async def close(self) -> None:
        """Stop accepting, drain everything already queued, then return."""
        if self._closed:
            if self._task is not None:
                await self._task
            return
        self._closed = True
        self._wakeup.set()
        if self._task is not None:
            await self._task

    async def _run(self) -> None:
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            while self._pending:
                # Shed dead work before spending inference on it: anyone
                # whose deadline lapsed while queued gets the typed
                # answer now and never rides a dispatch.
                self.shed_expired()
                batch = list(self._pending)
                self._pending.clear()
                if not batch:
                    continue
                try:
                    await self._dispatch(batch)
                except Exception as exc:
                    # The dispatcher resolves futures itself; this is a
                    # backstop so a dispatcher bug fails the affected
                    # requests instead of hanging them and killing the
                    # drain loop for everyone after them.
                    for req in batch:
                        if not req.future.done():
                            req.future.set_exception(exc)
            if self._closed:
                return
