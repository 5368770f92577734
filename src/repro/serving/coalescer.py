"""The batch coalescer: fold concurrent requests into one dispatch.

The serving engine (a generation's
:class:`~repro.model.InferenceWorkerPool`) is fastest when it folds
many documents in per call — one share per worker.  Concurrent clients each
bring a handful of documents, so the server queues them here and a
single drain loop dispatches **everything currently pending as one
coalesced call**: requests that arrive while a dispatch is running
accumulate and ride the next one.  Under light load a request dispatches
alone immediately; under heavy load dispatches grow to whatever
accumulated, which is exactly the batch-narrowing sweet spot — the
engine splits the coalesced document set evenly over its workers.

Admission control is a bounded queue: :meth:`BatchCoalescer.submit`
refuses (returns False) once ``max_pending`` unanswered requests wait, and
the server turns that refusal into a typed ``busy`` response.  Overload
therefore degrades into fast, explicit rejections instead of unbounded
buffering — degraded service is a first-class state, not a crash.

A queued request can be answered before it is dispatched: the server's
admission timer answers a request whose ``deadline_at`` lapses while it
waits.  An answered request frees its slot at once — :attr:`depth`
counts only unanswered entries, a full :meth:`submit` forgets answered
ones before it refuses, and the drain loop never dispatches them.  The
coalescer itself knows nothing of deadlines.
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
        Unanswered queued requests at which :meth:`submit` refuses.
    """

    def __init__(
        self,
        dispatch: Callable[[list[PendingRequest]], Awaitable[None]],
        max_pending: int = DEFAULT_MAX_PENDING,
    ):
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        self._dispatch = dispatch
        self.max_pending = int(max_pending)
        self._pending: deque[PendingRequest] = deque()
        self._wakeup = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._closed = False

    # -- producer side ------------------------------------------------------

    @property
    def depth(self) -> int:
        """Unanswered requests queued (excludes the dispatch in flight)."""
        return sum(not req.future.done() for req in self._pending)

    def submit(self, request: PendingRequest) -> bool:
        """Enqueue; False when ``max_pending`` unanswered requests wait (busy).

        A full queue first forgets its answered entries: a request
        answered while queued holds no slot.
        """
        if self._closed:
            raise RuntimeError("coalescer is closed")
        if len(self._pending) >= self.max_pending:
            self._pending = deque(
                req for req in self._pending if not req.future.done()
            )
        if len(self._pending) >= self.max_pending:
            return False
        self._pending.append(request)
        self._wakeup.set()
        return True

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
                # A request answered while queued rides no dispatch.
                batch = [
                    req for req in self._pending if not req.future.done()
                ]
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
