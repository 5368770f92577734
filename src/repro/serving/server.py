"""The asyncio inference server: coalesced serving with hot model swap.

One :class:`ServingServer` serves one long-lived frozen model behind
the length-prefixed JSON protocol of :mod:`repro.serving.protocol`:

- concurrent clients submit ``infer`` requests; a
  :class:`~repro.serving.coalescer.BatchCoalescer` folds everything
  pending into one call on the worker pool, so serving throughput
  under concurrency matches one big batched request — and every
  response is **bit-identical** to the client calling
  ``InferenceSession.transform`` itself, because each
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
- requests may carry a ``deadline_ms``: a timer armed at admission
  answers the request ``deadline_exceeded`` at its own deadline, queued
  (**shed**: it then rides no dispatch) or dispatched, and every
  dispatch runs under a watchdog bounded by the riders' latest
  deadline and the server-level ``dispatch_timeout_s`` (so a batch
  carrying deadline-less requests is still bounded) — if a worker is
  still wedged when the bound passes, the generation's workers are
  killed and its pool restarted in place, so one hung worker cannot
  poison later requests;
- admission control bounds the queue (typed ``busy`` past
  ``max_pending``) and a :class:`~repro.serving.breaker.CircuitBreaker`
  bounds *failure*: consecutive dispatch failures/timeouts open the
  circuit (typed ``circuit_open`` refusals, no inference attempted)
  until a half-open probe succeeds.  Overload and degraded workers are
  states the protocol speaks, not crashes.

The server computes nothing itself.  Every generation holds an
:class:`~repro.model.InferenceWorkerPool` of at least one worker
process; a dispatch sends the pool its shares and the event loop
awaits the replies, reading each worker's pipe when it turns readable,
so the loop keeps accepting, answering and swapping while the workers
fold.  A worker that dies makes its pipe readable at EOF, which fails
the dispatch at once.  The only other thread is a swap's one-shot
artifact loader, and it has ended before any worker forks.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro import faults
from repro.model import InferenceWorkerPool, TopicModel
from repro.model.inference import FoldInCall, check_schedule
from repro.parallel.pool import usable_cpus
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
#: wedged worker under a no-deadline request blocks the drain loop
#: forever.  Generous next to real fold-in times (well under a
#: second); 0 disables the bound.
DEFAULT_DISPATCH_TIMEOUT_S = 300.0


@dataclass
class ModelGeneration:
    """One deployed model: its worker pool plus the lineage that names it."""

    pool: InferenceWorkerPool
    model: TopicModel
    generation: str
    lineage: dict[str, Any] | None
    source: str
    index: int
    inflight: int = 0
    retired: bool = False
    #: Dispatches the pool answered: the ``stats`` op's ``routed.pool``.
    folded: int = 0

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
    num_sweeps / burn_in:
        The fold-in schedule every request is served with.
    num_workers / worker_affinity:
        Inference worker processes per generation, and optional CPU ids
        to pin them to.  ``num_workers=None`` gives one worker per CPU
        this process may run on; 1 is one worker process.  Every
        request folds in on the workers, which start when their
        generation is installed, so a server holds its workers from
        :meth:`start` on, even while idle.
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
        self._schedule = check_schedule(num_sweeps, burn_in)
        self._num_workers = (
            usable_cpus() if num_workers is None else num_workers
        )
        self._worker_affinity = worker_affinity
        self._dispatch_timeout_s = (
            float(dispatch_timeout_s) if dispatch_timeout_s else None
        )
        self._gen_counter = 0
        self._retired: list[ModelGeneration] = []
        self._gen = self._make_generation(*self._load(model))
        self._stats = LatencyStats()
        self._breaker = CircuitBreaker(breaker_threshold, breaker_reset_s)
        self._coalescer = BatchCoalescer(self._dispatch, max_pending)
        self._server: asyncio.AbstractServer | None = None
        self._connections: dict[asyncio.StreamWriter, asyncio.Future] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_requested = asyncio.Event()
        self._stopped = False
        self.address: tuple[str, int] | None = None

    # -- generations --------------------------------------------------------

    @staticmethod
    def _load(model: TopicModel | str | Path) -> tuple[TopicModel, str]:
        """The model to serve, loaded if given as a path, and its source."""
        if isinstance(model, (str, Path)):
            return TopicModel.load(model), str(model)
        if isinstance(model, TopicModel):
            return model, "<memory>"
        raise TypeError("model must be a TopicModel or a path")

    def _make_generation(
        self, model: TopicModel, source: str
    ) -> ModelGeneration:
        """A generation over ``model``; its pool starts when installed."""
        self._gen_counter += 1
        lineage = model.lineage
        generation = (lineage or {}).get("generation") or (
            f"gen-{self._gen_counter}"
        )
        return ModelGeneration(
            pool=InferenceWorkerPool(
                model, self._num_workers, self._worker_affinity
            ),
            model=model,
            generation=str(generation),
            lineage=lineage,
            source=source,
            index=self._gen_counter,
        )

    def _retire(self, gen: ModelGeneration) -> None:
        """Retire ``gen``: it closes once its in-flight dispatches drain."""
        if gen.retired:
            return
        gen.retired = True
        self._retired.append(gen)
        self._reap_retired()

    def _reap_retired(self) -> None:
        """Close retired generations whose in-flight batches have drained."""
        still = []
        for gen in self._retired:
            if gen.inflight == 0:
                gen.pool.close()
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
        # The first generation's workers fork here, so the first request
        # does not pay for them and the ready line means they are up.
        self._gen.pool.start()
        self._coalescer.start()
        try:
            self._server = await asyncio.start_server(
                self._handle_client, self._host, self._port
            )
        except BaseException:
            self._gen.pool.close()
            raise
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
        """Stop accepting, drain queued requests, release every pool."""
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
        self._retire(self._gen)

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
                "num_sweeps": self._schedule[0],
                "burn_in": self._schedule[1],
                "num_workers": self._gen.pool.num_workers,
                "inference": {
                    # The server folds nothing in-process; the field
                    # keeps the reply's shape.
                    "routed": {"in_process": 0, "pool": self._gen.folded},
                    "pool": self._gen.pool.describe(),
                },
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
            kinds = set(map(type, d))
            if list in kinds:
                return refuse(
                    "invalid_request", "each document must be a flat list"
                )
            # Exactly int: a float, string or bool id would otherwise
            # convert to some word silently.
            if not kinds <= {int}:
                return refuse(
                    "invalid_request", "token ids must be integers"
                )
            try:
                arr = np.asarray(d, dtype=np.int64)
            except OverflowError:
                return refuse(
                    "invalid_request",
                    f"word id out of the served vocabulary "
                    f"(V={num_words})",
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
            # Queued as the probe: if its deadline sheds it before
            # dispatch, _expire_request hands it back (_probe_lost).
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
        request as a fresh probe.  Only undispatched requests come here:
        a dispatched probe's dispatch records success or failure.
        """
        if req.meta.pop("breaker_probe", None):
            self._breaker.probe_aborted(self._loop.time())

    def _expire_request(self, req: PendingRequest) -> None:
        """Deadline timer: answer a request the moment its deadline passes.

        The one place a lapsed request is answered.  Counted as *shed*
        while the request is still queued (no inference was spent on it;
        the coalescer then never dispatches it) and as
        *deadline_exceeded* once dispatched.
        """
        if req.future.done():
            return
        if req.meta.get("dispatched"):
            self._stats.record_deadline_exceeded()
        else:
            self._probe_lost(req)
            self._stats.record_shed()
        req.future.set_result(self._expire_reply(req, self._loop.time()))

    async def _fold(self, gen: ModelGeneration, call: FoldInCall) -> None:
        """Fold ``call`` in on ``gen``'s pool; the loop awaits the replies.

        The shares go out at once, and each worker's reply is read when
        its pipe turns readable: a dead worker's pipe reads EOF, so a
        death fails the call at once rather than at a liveness poll.  A
        call that fails, or that the watchdog cancels, kills the pool:
        its workers may be wedged or hold unread replies.  The next
        dispatch starts a fresh one.
        """
        loop = self._loop
        pool = gen.pool
        done = loop.create_future()
        readers: dict[int, int] = {}

        def on_readable(w: int, share: np.ndarray) -> None:
            loop.remove_reader(readers.pop(w))
            try:
                pool.receive(w, share, call)
            except Exception as exc:
                if not done.done():
                    done.set_exception(exc)
            else:
                if not readers and not done.done():
                    done.set_result(None)

        try:
            for w, share in enumerate(pool.send(call, *self._schedule)):
                readers[w] = pool.fileno(w)
                loop.add_reader(readers[w], on_readable, w, share)
            if readers:
                await done
        except BaseException:
            for fd in readers.values():
                loop.remove_reader(fd)
            pool.kill()
            raise

    async def _dispatch(self, batch: list[PendingRequest]) -> None:
        """Run one coalesced inference for everything pending.

        Snapshots the current generation once: a swap that lands while
        this dispatch computes only affects later dispatches, and the
        generation's inflight count keeps its pool alive until the
        batch drains.

        Deadline handling: each deadlined request was given a timer at
        admission that answers it (typed ``deadline_exceeded``) the
        moment its deadline passes — queued, riding this dispatch, or
        mid-compute, no client ever blocks past its deadline.  One lapse
        check just before the watchdog is armed answers a rider whose
        deadline passed before its timer ran, and computes only the
        riders still unanswered.  The fold runs under
        ``asyncio.wait_for`` bounded by the riders' latest deadline
        (when every rider has one) and by the server-level
        ``dispatch_timeout_s`` — so a batch carrying deadline-less
        requests is still bounded and one wedged worker cannot stall the
        drain loop forever.  The watchdog firing means a worker is
        wedged: the cancelled fold kills the generation's workers, and
        the pool restarts in place at once.
        """
        loop = self._loop
        gen = self._gen
        valid: list[PendingRequest] = []
        for req in batch:
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
        try:
            # Chaos hooks (no-ops unless armed; see repro.faults):
            # serve_slow injects tail latency, serve_error exercises the
            # typed inference_failed path end-to-end (serve_hang lives
            # in the workers' fold-in loop).
            delay = faults.delay_if("serve_slow", op="infer")
            if delay:
                await asyncio.sleep(delay)
            faults.raise_if("serve_error", op="infer")
            # The lapse check.  A deadline can pass in the tick its timer
            # is due, before the timer runs: answer that rider now.
            # Answered riders are not computed; each theta depends only
            # on its own docs and seed, so the others keep their bits.
            dispatched_at = loop.time()
            for req in valid:
                if req.expired(dispatched_at):
                    self._expire_request(req)
            valid = [req for req in valid if not req.future.done()]
            if not valid:
                # Nothing left to compute, and arming a ~0 watchdog would
                # kill a healthy pool.  Still a timeout against the
                # breaker: the server was too slow for its clients.
                self._breaker.record_failure(dispatched_at)
                return
            deadlines = [
                req.deadline_at for req in valid
                if req.deadline_at is not None
            ]
            guards = []
            if len(deadlines) == len(valid):
                guards.append(max(deadlines) - dispatched_at)
            if self._dispatch_timeout_s is not None:
                guards.append(self._dispatch_timeout_s)
            hang_guard = min(guards) if guards else None
            call = FoldInCall(
                [(req.docs, req.seed) for req in valid],
                gen.model.num_topics, gen.model.num_words,
            )
            await asyncio.wait_for(self._fold(gen, call), hang_guard)
            service_s = loop.time() - dispatched_at
        except asyncio.TimeoutError:
            # Watchdog: a worker is wedged past the dispatch bound.
            # Deadlined riders were answered by their admission timers;
            # anyone left (no deadline, or a deadline beyond the server
            # bound) fails typed rather than waiting on a wedged worker.
            self._stats.record_watchdog()
            self._breaker.record_failure(loop.time())
            for req in valid:
                if req.future.done():
                    continue
                self._stats.record_error()
                req.future.set_result({
                    "type": "error", "id": req.request_id,
                    "error": "inference_failed",
                    "message": (
                        f"dispatch watchdog fired after "
                        f"{hang_guard:.1f}s: a worker is wedged; the "
                        f"generation's workers were killed and restarted"
                    ),
                    "generation": gen.generation,
                })
            if not gen.retired:
                gen.pool.start()
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
            gen.folded += 1
            for req, theta in zip(valid, call.thetas()):
                if req.future.done():
                    continue  # its deadline passed mid-compute
                queue_wait_s = dispatched_at - req.enqueued_at
                self._stats.record(queue_wait_s, service_s)
                req.future.set_result({
                    "type": "result", "id": req.request_id,
                    "theta": theta,
                    "generation": gen.generation,
                    "lineage": gen.lineage,
                    "queue_wait_s": queue_wait_s,
                    "service_s": service_s,
                    "coalesced_requests": len(valid),
                })
        finally:
            gen.inflight -= 1
            self._reap_retired()

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
        loaded = asyncio.Event()
        outcome: list = []

        def load_and_check() -> None:
            try:
                model, source = self._load(path)
                self._check_swap_invariants(model)
                outcome.append((model, source))
            except Exception as exc:
                outcome.append(exc)
            finally:
                loop.call_soon_threadsafe(loaded.set)

        # The artifact load (digest-verified) and the invariant check run
        # on a one-shot thread, so the old generation keeps answering
        # while the candidate loads — and keeps serving (last-good
        # rollback) if it is rejected.
        loader = threading.Thread(target=load_and_check, name="repro-swap-load")
        loader.start()
        try:
            await loaded.wait()
        finally:
            loader.join()
        try:
            if isinstance(outcome[0], Exception):
                raise outcome[0]
            new_gen = self._make_generation(*outcome[0])
            # Only a candidate that passed forks its workers: here, on
            # the loop thread, once the load thread has ended.
            new_gen.pool.start()
        except Exception as exc:
            self._stats.record_swap_rejected()
            await self._write(writer, lock, {
                "type": "error", "id": rid, "error": "swap_rejected",
                "message": str(exc),
                "reason": type(exc).__name__,
                "generation": self._gen.generation,
            })
            return
        old = self._gen
        self._gen = new_gen  # atomic repoint: later dispatches use new_gen
        self._retire(old)  # closes now if nothing is in flight on it
        self._stats.record_swap()
        await self._write(writer, lock, {
            "type": "swapped", "id": rid,
            "generation": new_gen.generation,
            "previous": old.generation,
            "lineage": new_gen.lineage,
            "model": new_gen.describe(),
        })

