"""The asyncio inference server: coalesced serving with hot model swap.

One :class:`ServingServer` wraps one long-lived
:class:`~repro.model.InferenceSession` behind the length-prefixed JSON
protocol of :mod:`repro.serving.protocol`:

- concurrent clients submit ``infer`` requests; a
  :class:`~repro.serving.coalescer.BatchCoalescer` folds everything
  pending into one ``transform_many`` call (batches sized for the
  worker pool), so serving throughput under concurrency matches one
  big batched request — and every response is **bit-identical** to the
  client calling ``InferenceSession.transform`` itself, because each
  request's documents keep their own seed streams through coalescing;
- every response records ``queue_wait_s`` (coalescer hold time) and
  ``service_s`` (the inference span it rode), aggregated by
  :class:`~repro.serving.stats.LatencyStats` for the ``stats`` op;
- a ``swap`` request loads a new model artifact, **verifies its
  integrity digest and invariants** (phi/totals consistency, finite
  hyper-parameters — see :mod:`repro.integrity`), and only then
  **atomically** repoints subsequent dispatches at a fresh generation
  while in-flight batches drain on the old one — zero dropped requests;
  a corrupt or invalid artifact is a typed ``swap_rejected`` and the
  current generation keeps serving (last-good rollback);
- requests may carry a ``deadline_ms``: entries whose deadline passes
  while queued are **shed** before wasting inference work, a dispatched
  request is answered ``deadline_exceeded`` at its own deadline, and
  every dispatch runs under a watchdog bounded by the riders' latest
  deadline and the server-level ``dispatch_timeout_s`` (so a batch
  carrying deadline-less requests is still bounded) — if the inference
  call is still wedged when the bound passes, the generation is retired
  and a fresh session (lazily rebuilt worker pool) installed, so one
  hung worker cannot poison later requests;
- admission control bounds the queue (typed ``busy`` past
  ``max_pending``) and a :class:`~repro.serving.breaker.CircuitBreaker`
  bounds *failure*: consecutive dispatch failures/timeouts open the
  circuit (typed ``circuit_open`` refusals, no inference attempted)
  until a half-open probe succeeds.  Overload and degraded workers are
  states the protocol speaks, not crashes.

Inference runs on an executor thread, so the event loop keeps accepting,
answering and swapping while the engine computes.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from repro import faults
from repro.model import InferenceSession, TopicModel
from repro.model.parallel_inference import usable_cpus
from repro.serving.breaker import (
    DEFAULT_FAILURE_THRESHOLD,
    DEFAULT_RESET_TIMEOUT_S,
    OPEN,
    CircuitBreaker,
)
from repro.serving.coalescer import (
    DEFAULT_MAX_PENDING,
    BatchCoalescer,
    PendingRequest,
)
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    FrameError,
    read_frame,
    write_frame,
)
from repro.serving.stats import LatencyStats

__all__ = ["ModelGeneration", "ServingServer"]

#: Fold-in schedule a server uses unless configured otherwise.  Fixed
#: per server (not per request): coalesced requests share one fold-in
#: call, so the Gibbs schedule is a deployment knob, like the model.
DEFAULT_SERVE_SWEEPS = 20
DEFAULT_SERVE_BURN_IN = 8

#: Server-level bound on one coalesced dispatch (seconds).  Applies to
#: every batch — including ones carrying deadline-less requests, which
#: per-request deadlines alone would leave unbounded: without it, one
#: wedged executor thread under a no-deadline request blocks the drain
#: loop forever.  Generous next to real fold-in times (well under a
#: second); 0 disables the bound.
DEFAULT_DISPATCH_TIMEOUT_S = 300.0


@dataclass
class ModelGeneration:
    """One deployed model: a session plus the lineage that names it."""

    session: InferenceSession
    model: TopicModel
    generation: str
    lineage: dict[str, Any] | None
    source: str
    index: int
    inflight: int = 0
    retired: bool = False

    def describe(self) -> dict[str, Any]:
        return {
            "generation": self.generation,
            "lineage": self.lineage,
            "source": self.source,
            "num_topics": self.model.num_topics,
            "num_words": self.model.num_words,
            "integrity": (self.model.metadata or {}).get("integrity"),
        }


class ServingServer:
    """Async inference server over one (swappable) frozen model.

    Parameters
    ----------
    model:
        A :class:`~repro.model.TopicModel` or a path to a saved
        artifact (the initial generation; ``swap`` installs later ones).
    host / port:
        Bind address; ``port=0`` picks a free port (see
        :attr:`address` after :meth:`start`).
    num_sweeps / burn_in / batch_docs / num_workers / worker_affinity:
        Forwarded to every generation's
        :class:`~repro.model.InferenceSession`.  ``num_workers=None``
        sizes the inference pool to the CPUs this process may run on
        (one CPU stays in-process); the session still folds calls too
        small to split in-process.
    max_pending:
        Admission-control depth: queued (not yet dispatched) requests
        beyond which ``infer`` answers ``busy``.
    breaker_threshold / breaker_reset_s:
        Circuit-breaker knobs: consecutive dispatch failures that open
        the circuit (0 disables) and seconds before the half-open probe.
    dispatch_timeout_s:
        Watchdog bound over any single coalesced dispatch, whether or
        not its riders carry deadlines (0 disables; requests with
        deadlines are always bounded by them regardless).
    """

    def __init__(
        self,
        model: TopicModel | str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        num_sweeps: int = DEFAULT_SERVE_SWEEPS,
        burn_in: int = DEFAULT_SERVE_BURN_IN,
        batch_docs: int | None = None,
        num_workers: int | None = None,
        worker_affinity=None,
        max_pending: int = DEFAULT_MAX_PENDING,
        breaker_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        breaker_reset_s: float = DEFAULT_RESET_TIMEOUT_S,
        dispatch_timeout_s: float | None = DEFAULT_DISPATCH_TIMEOUT_S,
    ):
        if dispatch_timeout_s is not None and dispatch_timeout_s < 0:
            raise ValueError("dispatch_timeout_s must be >= 0")
        self._host = host
        self._port = port
        self._session_kwargs: dict[str, Any] = {
            "num_sweeps": num_sweeps,
            "burn_in": burn_in,
            "num_workers": (
                usable_cpus() if num_workers is None else num_workers
            ),
            "worker_affinity": worker_affinity,
        }
        if batch_docs is not None:
            self._session_kwargs["batch_docs"] = batch_docs
        self._dispatch_timeout_s = (
            float(dispatch_timeout_s) if dispatch_timeout_s else None
        )
        self._gen_counter = 0
        self._retired: list[ModelGeneration] = []
        self._gen = self._make_generation(*self._load_session(model))
        self._stats = LatencyStats()
        self._breaker = CircuitBreaker(breaker_threshold, breaker_reset_s)
        self._coalescer = BatchCoalescer(
            self._dispatch, max_pending, on_expired=self._shed_request
        )
        self._server: asyncio.AbstractServer | None = None
        self._connections: dict[asyncio.StreamWriter, asyncio.Future] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_requested = asyncio.Event()
        self._stopped = False
        self.address: tuple[str, int] | None = None

    # -- generations --------------------------------------------------------

    def _load_session(
        self, model: TopicModel | str | Path
    ) -> tuple[TopicModel, InferenceSession, str]:
        """Build a session for ``model`` (artifact load + session setup).

        Runs on an executor thread during ``swap`` so the event loop
        keeps serving the old generation while the new one loads.
        """
        if isinstance(model, (str, Path)):
            source = str(model)
            model = TopicModel.load(model)
        elif isinstance(model, TopicModel):
            source = "<memory>"
        else:
            raise TypeError("model must be a TopicModel or a path")
        session = InferenceSession(model, **self._session_kwargs)
        return model, session, source

    def _make_generation(
        self, model: TopicModel, session: InferenceSession, source: str
    ) -> ModelGeneration:
        self._gen_counter += 1
        lineage = model.lineage
        generation = (lineage or {}).get("generation") or (
            f"gen-{self._gen_counter}"
        )
        return ModelGeneration(
            session=session,
            model=model,
            generation=str(generation),
            lineage=lineage,
            source=source,
            index=self._gen_counter,
        )

    def _reap_retired(self) -> None:
        """Close retired generations whose in-flight batches have drained."""
        still = []
        for gen in self._retired:
            if gen.inflight == 0:
                gen.session.close()
            else:
                still.append(gen)
        self._retired = still

    @property
    def generation(self) -> str:
        """Id of the generation new dispatches go to."""
        return self._gen.generation

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        if self._server is not None:
            return self.address
        self._loop = asyncio.get_running_loop()
        self._coalescer.start()
        self._server = await asyncio.start_server(
            self._handle_client, self._host, self._port
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    def request_shutdown(self) -> None:
        """Ask :meth:`run` to stop after draining in-flight work.

        Safe to call from a signal handler registered on the serving
        event loop (``loop.add_signal_handler``): it only sets an event,
        and :meth:`run` performs the actual drain and teardown.
        """
        self._shutdown_requested.set()

    async def stop(self) -> None:
        """Stop accepting, drain queued requests, release every session."""
        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._coalescer.close()
        # Nudge lingering connections shut and wait for their handlers
        # to finish, so loop teardown never cancels a reader mid-await.
        for writer in list(self._connections):
            writer.close()
        if self._connections:
            await asyncio.gather(
                *self._connections.values(), return_exceptions=True
            )
        self._gen.retired = True
        self._retired.append(self._gen)
        self._reap_retired()

    async def run(self, on_ready=None) -> None:
        """Serve until a ``shutdown`` request (or cancellation), then stop."""
        await self.start()
        if on_ready is not None:
            on_ready(self.address)
        try:
            await self._shutdown_requested.wait()
        finally:
            await self.stop()

    async def __aenter__(self) -> ServingServer:
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- connection handling ------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # One write lock per connection: responses for pipelined
        # requests complete out of order, and frames must not interleave.
        lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        done = asyncio.get_running_loop().create_future()
        self._connections[writer] = done
        try:
            while True:
                try:
                    msg = await read_frame(reader)
                except FrameError as exc:
                    await self._write(
                        writer, lock,
                        {"type": "error", "error": "bad_frame",
                         "message": str(exc)},
                    )
                    break
                if msg is None:
                    break
                if await self._handle_message(msg, writer, lock, tasks):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._connections.pop(writer, None)
            if not done.done():
                done.set_result(None)

    async def _write(
        self, writer: asyncio.StreamWriter, lock: asyncio.Lock, message: dict
    ) -> None:
        try:
            async with lock:
                await write_frame(writer, message)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing left to tell it

    async def _handle_message(
        self,
        msg: dict,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        tasks: set[asyncio.Task],
    ) -> bool:
        """Handle one request; True ends the connection's read loop."""
        op = msg.get("op")
        rid = msg.get("id")
        if op == "ping":
            await self._write(writer, lock, {
                "type": "pong", "id": rid, "version": PROTOCOL_VERSION,
                "generation": self._gen.generation,
            })
        elif op == "infer":
            reply, request = self._admit(msg)
            if reply is not None:
                await self._write(writer, lock, reply)
            else:
                task = asyncio.get_running_loop().create_task(
                    self._answer(request, writer, lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        elif op == "swap":
            await self._handle_swap(msg, writer, lock)
        elif op == "stats":
            await self._write(writer, lock, {
                "type": "stats", "id": rid,
                "version": PROTOCOL_VERSION,
                "model": self._gen.describe(),
                "pending": self._coalescer.depth,
                "max_pending": self._coalescer.max_pending,
                "num_sweeps": self._session_kwargs["num_sweeps"],
                "burn_in": self._session_kwargs["burn_in"],
                "num_workers": self._gen.session.num_workers,
                "inference": self._gen.session.pool_stats(),
                "latency": self._stats.snapshot(),
                "breaker": self._breaker.snapshot(),
            })
        elif op == "shutdown":
            await self._write(writer, lock, {"type": "bye", "id": rid})
            self.request_shutdown()
            return True
        else:
            await self._write(writer, lock, {
                "type": "error", "id": rid, "error": "unknown_op",
                "message": f"unknown op {op!r}",
            })
        return False

    # -- infer path ---------------------------------------------------------

    def _admit(
        self, msg: dict
    ) -> tuple[dict | None, PendingRequest | None]:
        """Validate + enqueue one infer request.

        Returns ``(immediate reply, None)`` for rejections (invalid,
        busy, shutting down) or ``(None, request)`` once queued.
        """
        rid = msg.get("id")
        loop = asyncio.get_running_loop()

        # Fail fast while the circuit is open: a round-trip refusal, not
        # an inference attempt against a path that keeps failing.  A
        # request admitted out of the open state IS the half-open probe;
        # every path on which it can die before reaching a dispatch
        # outcome must hand it back (probe_aborted), or the breaker
        # waits in half-open — refusing all traffic — forever.
        now = loop.time()
        is_probe = self._breaker.state == OPEN

        def refuse(error: str, message: str) -> tuple[dict, None]:
            if is_probe:
                self._breaker.probe_aborted(now)
            self._stats.record_error()
            return (
                {"type": "error", "id": rid, "error": error,
                 "message": message},
                None,
            )

        if not self._breaker.allow(now):
            self._stats.record_circuit_rejected()
            return (
                {"type": "error", "id": rid, "error": "circuit_open",
                 "message": (
                     f"circuit breaker open after "
                     f"{self._breaker.consecutive_failures} consecutive "
                     f"dispatch failures; retry in "
                     f"{self._breaker.retry_after_s(now):.2f}s"
                 ),
                 "retry_after_s": self._breaker.retry_after_s(now)},
                None,
            )
        deadline_ms = msg.get("deadline_ms")
        deadline_at = None
        if deadline_ms is not None:
            if (
                not isinstance(deadline_ms, (int, float))
                or isinstance(deadline_ms, bool)
                or not np.isfinite(deadline_ms)
                or deadline_ms <= 0
            ):
                return refuse(
                    "invalid_request",
                    "deadline_ms must be a positive number of milliseconds",
                )
            deadline_at = now + float(deadline_ms) / 1000.0
        raw = msg.get("docs")
        if not isinstance(raw, list) or not raw:
            return refuse(
                "invalid_request", "docs must be a non-empty list of "
                "token-id lists",
            )
        seed = msg.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            return refuse(
                "invalid_request", "seed must be a non-negative integer"
            )
        docs: list[np.ndarray] = []
        num_words = self._gen.model.num_words
        for d in raw:
            if not isinstance(d, list):
                return refuse(
                    "invalid_request", "each document must be a list of "
                    "token ids",
                )
            try:
                arr = np.asarray(d, dtype=np.int64)
            except (TypeError, ValueError, OverflowError):
                return refuse(
                    "invalid_request", "token ids must be integers"
                )
            if arr.ndim != 1:
                return refuse(
                    "invalid_request", "each document must be a flat list"
                )
            if arr.size and (arr.min() < 0 or arr.max() >= num_words):
                return refuse(
                    "invalid_request",
                    f"word id out of the served vocabulary "
                    f"(V={num_words})",
                )
            docs.append(arr)
        request = PendingRequest(
            docs=docs,
            seed=seed,
            future=loop.create_future(),
            enqueued_at=loop.time(),
            request_id=rid,
            deadline_at=deadline_at,
        )
        if is_probe:
            # Queued as the probe: if it is shed before dispatch, the
            # shed path hands it back to the breaker (_probe_lost).
            request.meta["breaker_probe"] = True
        try:
            accepted = self._coalescer.submit(request)
        except RuntimeError:
            return refuse("shutting_down", "server is shutting down")
        if not accepted:
            if is_probe:
                self._breaker.probe_aborted(now)
            self._stats.record_busy()
            return (
                {"type": "busy", "id": rid,
                 "pending": self._coalescer.depth,
                 "max_pending": self._coalescer.max_pending},
                None,
            )
        if deadline_at is not None:
            # Armed at admission, not at dispatch: a request stuck in the
            # queue behind a slow dispatch is answered at its OWN
            # deadline — the drain loop never gates the typed reply.
            timer = loop.call_at(deadline_at, self._expire_request, request)
            request.future.add_done_callback(lambda _f: timer.cancel())
        return None, request

    async def _answer(
        self,
        request: PendingRequest,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        try:
            reply = await request.future
        except Exception as exc:  # coalescer backstop path
            self._stats.record_error()
            reply = {
                "type": "error", "id": request.request_id,
                "error": "inference_failed", "message": str(exc),
            }
        await self._write(writer, lock, reply)

    def _expire_reply(self, req: PendingRequest, now: float) -> dict:
        waited_ms = (now - req.enqueued_at) * 1e3
        return {
            "type": "error", "id": req.request_id,
            "error": "deadline_exceeded",
            "message": (
                f"request deadline passed after {waited_ms:.1f} ms "
                f"on the server"
            ),
        }

    def _probe_lost(self, req: PendingRequest) -> None:
        """Hand a half-open probe that died pre-dispatch back to the breaker.

        A probe answered before it reached a dispatch outcome (shed by
        its deadline while queued, or bounced at dispatch admission)
        proved nothing; reverting the breaker to open re-arms the next
        request as a fresh probe.  Once dispatched, the dispatch itself
        records success or failure, so the mark is left alone.
        """
        if req.meta.get("dispatched"):
            return
        if req.meta.pop("breaker_probe", None):
            loop = self._loop or asyncio.get_event_loop()
            self._breaker.probe_aborted(loop.time())

    def _shed_request(self, req: PendingRequest) -> None:
        """Coalescer shed hook: answer an expired *queued* request."""
        if req.future.done():
            return
        self._probe_lost(req)
        self._stats.record_shed()
        loop = self._loop or asyncio.get_event_loop()
        req.future.set_result(self._expire_reply(req, loop.time()))

    def _expire_request(self, req: PendingRequest) -> None:
        """Deadline timer: answer a request the moment its deadline passes.

        Counted as *shed* while the request is still queued (no inference
        was spent on it) and as *deadline_exceeded* once dispatched.
        """
        if req.future.done():
            return
        if req.meta.get("dispatched"):
            self._stats.record_deadline_exceeded()
        else:
            self._probe_lost(req)
            self._stats.record_shed()
        loop = self._loop or asyncio.get_event_loop()
        req.future.set_result(self._expire_reply(req, loop.time()))

    def _compute(self, gen: ModelGeneration, requests: list) -> list:
        """The executor-thread side of a dispatch.

        The ``serve_hang`` chaos hook wedges *here* — on the thread,
        past the event loop's reach — so only the deadline watchdog can
        answer the affected clients.
        """
        faults.sleep_if("serve_hang", op="infer")
        return gen.session.transform_many(requests)

    def _heal_generation(self, gen: ModelGeneration) -> None:
        """Replace a generation whose dispatch the watchdog abandoned.

        The abandoned executor thread may still be inside
        ``transform_many`` on ``gen``'s session (its fold-in workspace
        is not thread-safe), so the session cannot be reused: retire it
        — the inflight refcount keeps it alive until the thread drains,
        and :meth:`_reap_retired` then closes it, tearing down any
        wedged worker pool — and install a fresh session over the same
        model.  The new session's pool is built lazily on the next
        dispatch (the PR-6 failure lifecycle), so one wedged worker
        cannot poison subsequent requests.
        """
        if gen.retired:
            return  # an intervening swap already replaced it
        gen.retired = True
        self._retired.append(gen)
        if self._gen is gen:
            session = InferenceSession(gen.model, **self._session_kwargs)
            self._gen = self._make_generation(gen.model, session, gen.source)

    async def _dispatch(self, batch: list[PendingRequest]) -> None:
        """Run one coalesced inference for everything pending.

        Snapshots the current generation once: a swap that lands while
        this dispatch computes only affects later dispatches, and the
        generation's inflight count keeps its arena alive until the
        batch drains.

        Deadline handling: each deadlined request was given a timer at
        admission that answers it (typed ``deadline_exceeded``) the
        moment its deadline passes — queued, riding this dispatch, or
        mid-compute, no client ever blocks past its deadline.  The
        executor call runs under ``asyncio.wait_for`` bounded by the
        riders' latest deadline (when every rider has one) and by the
        server-level ``dispatch_timeout_s`` — so a batch carrying
        deadline-less requests is still bounded and one wedged thread
        cannot stall the drain loop forever.  The watchdog firing means
        the inference thread is wedged, so the generation is retired and
        healed (:meth:`_heal_generation`) and the thread's eventual
        result discarded.
        """
        loop = self._loop if self._loop is not None else (
            asyncio.get_running_loop()
        )
        gen = self._gen
        valid: list[PendingRequest] = []
        now = loop.time()
        for req in batch:
            if req.future.done():
                continue  # already answered (shed raced the drain)
            if req.expired(now):
                self._expire_request(req)
                continue
            # Re-check vocabulary bounds against the generation actually
            # answering: a swap between enqueue and dispatch may have
            # shrunk V.
            if any(
                d.size and int(d.max()) >= gen.model.num_words
                for d in req.docs
            ):
                self._probe_lost(req)
                self._stats.record_error()
                req.future.set_result({
                    "type": "error", "id": req.request_id,
                    "error": "vocabulary_mismatch",
                    "message": (
                        f"word id out of generation "
                        f"{gen.generation}'s vocabulary "
                        f"(V={gen.model.num_words})"
                    ),
                    "generation": gen.generation,
                })
            else:
                req.meta["dispatched"] = True
                valid.append(req)
        if not valid:
            return
        gen.inflight += 1
        released = False

        def release(_fut=None) -> None:
            # Runs exactly once — directly when the dispatch owns the
            # executor future's lifetime, or from its done-callback when
            # the watchdog abandoned it (the thread may outlive us, and
            # the retired session must not be closed under it).
            nonlocal released
            if released:
                return
            released = True
            if _fut is not None and not _fut.cancelled():
                _fut.exception()  # retrieved: no "never retrieved" noise
            gen.inflight -= 1
            self._reap_retired()

        # Deadline timers were armed at admission (each request answers
        # at its own deadline even mid-compute); here only the watchdog
        # bound over the whole dispatch remains to compute.
        fut: asyncio.Future | None = None
        timed_out = False
        try:
            # Chaos hooks (no-ops unless armed; see repro.faults):
            # serve_slow injects tail latency, serve_error exercises the
            # typed inference_failed path end-to-end (serve_hang lives
            # in _compute, on the executor thread).
            delay = faults.delay_if("serve_slow", op="infer")
            if delay:
                await asyncio.sleep(delay)
            faults.raise_if("serve_error", op="infer")
            if all(req.future.done() for req in valid):
                # Every rider's deadline lapsed during the delay: the
                # timers already answered them — nothing left to compute,
                # but the dispatch still counts as a timeout against the
                # breaker (the server is too slow for its clients).
                self._breaker.record_failure(loop.time())
                return
            requests = [(req.docs, req.seed) for req in valid]
            deadlines = [
                req.deadline_at for req in valid
                if req.deadline_at is not None
            ]
            guards = []
            if deadlines and len(deadlines) == len(valid):
                guards.append(max(deadlines) - loop.time())
            if self._dispatch_timeout_s is not None:
                guards.append(self._dispatch_timeout_s)
            hang_guard = min(guards) if guards else None
            if hang_guard is not None and hang_guard <= 0.0:
                # Every rider's deadline lapsed while the batch was
                # being assembled (no await ran, so the admission timers
                # haven't fired yet).  Answer them and skip the dispatch
                # entirely: arming a ~0 watchdog here would retire a
                # perfectly healthy generation.  Still a timeout against
                # the breaker — the server was too slow for its clients.
                self._breaker.record_failure(loop.time())
                for req in valid:
                    if not req.future.done():
                        self._expire_request(req)
                return
            dispatched_at = loop.time()
            fut = loop.run_in_executor(
                None, partial(self._compute, gen, requests)
            )
            try:
                thetas = await asyncio.wait_for(
                    asyncio.shield(fut), hang_guard
                )
            except asyncio.TimeoutError:
                timed_out = True
                raise
            service_s = loop.time() - dispatched_at
        except asyncio.TimeoutError:
            # Watchdog: the inference thread is wedged past the dispatch
            # bound.  Deadlined riders were answered by their admission
            # timers; anyone left (no deadline, or a deadline beyond the
            # server bound) fails typed rather than waiting on a wedged
            # thread.  Tear the generation down so the next dispatch
            # gets a clean one.
            self._stats.record_watchdog()
            now_wd = loop.time()
            self._breaker.record_failure(now_wd)
            for req in valid:
                if req.future.done():
                    continue
                if req.expired(now_wd):
                    self._expire_request(req)
                else:
                    self._stats.record_error()
                    req.future.set_result({
                        "type": "error", "id": req.request_id,
                        "error": "inference_failed",
                        "message": (
                            f"dispatch watchdog fired after "
                            f"{hang_guard:.1f}s: inference is wedged; "
                            f"the generation was retired and a fresh "
                            f"session installed"
                        ),
                        "generation": gen.generation,
                    })
            self._heal_generation(gen)
        except Exception as exc:
            self._breaker.record_failure(loop.time())
            for req in valid:
                if req.future.done():
                    continue
                self._stats.record_error()
                req.future.set_result({
                    "type": "error", "id": req.request_id,
                    "error": "inference_failed", "message": str(exc),
                    "generation": gen.generation,
                })
        else:
            self._breaker.record_success()
            for req, theta in zip(valid, thetas):
                if req.future.done():
                    continue  # its deadline passed mid-compute
                queue_wait_s = dispatched_at - req.enqueued_at
                self._stats.record(queue_wait_s, service_s)
                req.future.set_result({
                    "type": "result", "id": req.request_id,
                    "theta": theta.tolist(),
                    "generation": gen.generation,
                    "lineage": gen.lineage,
                    "queue_wait_s": queue_wait_s,
                    "service_s": service_s,
                    "coalesced_requests": len(valid),
                })
        finally:
            if timed_out and fut is not None:
                fut.add_done_callback(release)
            else:
                release()

    # -- hot swap -----------------------------------------------------------

    @staticmethod
    def _check_swap_invariants(model: TopicModel) -> None:
        """Cheap pre-repoint sanity check on a candidate generation.

        The artifact loader already verified the payload digest and the
        :class:`~repro.model.TopicModel` constructor its structural
        invariants; this re-asserts the serving-critical ones (and adds
        finiteness, which positivity checks alone let through) so a swap
        can never repoint at a model that would corrupt every answer.
        """
        if not (np.isfinite(model.alpha) and np.isfinite(model.beta)):
            raise ValueError(
                f"non-finite hyper-parameters (alpha={model.alpha}, "
                f"beta={model.beta})"
            )
        phi = np.asarray(model.phi)
        if np.any(phi < 0):
            raise ValueError("negative phi counts")
        if not np.array_equal(
            np.asarray(model.topic_totals), phi.sum(axis=1)
        ):
            raise ValueError("topic totals do not match phi row sums")

    async def _handle_swap(
        self, msg: dict, writer: asyncio.StreamWriter, lock: asyncio.Lock
    ) -> None:
        rid = msg.get("id")
        path = msg.get("path")
        if not isinstance(path, str) or not path:
            self._stats.record_error()
            await self._write(writer, lock, {
                "type": "error", "id": rid, "error": "invalid_request",
                "message": "swap needs a 'path' to a model artifact",
            })
            return
        loop = asyncio.get_running_loop()
        try:
            # Artifact load (digest-verified) + invariant check + session
            # build, all off the event loop: the old generation keeps
            # answering while the candidate warms up — and keeps serving
            # (last-good rollback) if the candidate is rejected.
            def load_and_check():
                loaded = self._load_session(path)
                self._check_swap_invariants(loaded[0])
                return loaded

            model, session, source = await loop.run_in_executor(
                None, load_and_check
            )
        except Exception as exc:
            self._stats.record_swap_rejected()
            await self._write(writer, lock, {
                "type": "error", "id": rid, "error": "swap_rejected",
                "message": str(exc),
                "reason": type(exc).__name__,
                "generation": self._gen.generation,
            })
            return
        new_gen = self._make_generation(model, session, source)
        old = self._gen
        self._gen = new_gen  # atomic repoint: later dispatches use new_gen
        old.retired = True
        self._retired.append(old)
        self._reap_retired()  # close now if nothing is in flight on it
        self._stats.record_swap()
        await self._write(writer, lock, {
            "type": "swapped", "id": rid,
            "generation": new_gen.generation,
            "previous": old.generation,
            "lineage": new_gen.lineage,
            "model": new_gen.describe(),
        })
