"""Master-side process execution engine.

:class:`ProcessEngine` runs the per-iteration functional work of a set
of *replica groups* (simulated devices for CuLDA, parameter-server
workers for LDA*) on persistent OS worker processes, with all bulk state
— token arrays, topic assignments, theta CSR buffers, the published
model and one phi delta accumulator per OS worker — in one
:class:`~repro.parallel.shm.ShmArena` shared-memory block.  The master
keeps everything else: the simulated GPU clocks, cost charging, the phi
merge of the workers' pre-reduced deltas at the iteration barrier
(``core/sync.py``), likelihood.

Execution model per iteration (:meth:`publish_model`,
:meth:`dispatch_iteration`, then :meth:`collect_iteration`):

1. master writes the merged model into ``model/*`` and sends
   ``("iter", i)`` to every worker;
2. each worker, before each group it owns, copies ``model/*`` into its
   one private phi/totals replica, samples the group's chunks against
   it in serial-schedule order, and sums every chunk's phi update into
   its ``wdelta{w}/*`` accumulator; topics and theta land in the
   shared block;
3. master collects the per-chunk statistics, refreshes its theta views
   and hands the results to the caller for cost accounting and sync.

The engine is start-lazy, restartable (a closed engine can be rebuilt
from current master state), and cleans up its shared segment and worker
processes on :meth:`close` — with a finalizer backstop for abandoned
instances.

Crash recovery
--------------
A worker process dying mid-iteration (OOM kill, injected crash, bug) no
longer aborts the run.  Every :meth:`dispatch_iteration` first captures
a **recovery snapshot** of the shared state the workers are about to
mutate (chunk topic assignments and theta CSR slots; a replay re-reads
``model/*``, which only the master writes); when
:meth:`collect_iteration` sees :class:`~repro.parallel.pool.WorkerDied`,
the engine terminates the remaining workers *without* unlinking the
arena, restores the snapshot in place, respawns the pool and replays the
same ``(iteration, want_ll)`` kick-off.  Because the RNG stream
of a chunk pass is keyed purely by ``(seed, iteration, chunk_id)`` and a
fresh worker rebuilds its private theta deterministically from the
restored shared assignments, the replay reproduces the lost iteration
**bit-for-bit** — model, likelihood terms and (master-side) simulated
clocks are indistinguishable from an uninterrupted run.  The retry
budget is bounded (``recovery_retries`` respawns per incident, with
exponential host-side backoff); past it a :class:`RecoveryFailed`
carries the terminal diagnosis.  Deterministic worker *exceptions*
(a remote traceback reply) are not retried — replaying a deterministic
bug would fail identically, so it surfaces immediately.
"""

from __future__ import annotations

import time
import weakref

import numpy as np

from repro import faults
from repro.core.model import ChunkState
from repro.core.scheduler import ChunkResult
from repro.core.sparse import CsrCounts, index_dtype
from repro.parallel.pool import (
    WorkerDied,
    normalize_affinity,
    recv_reply,
    shutdown_pool,
    spawn_workers,
    stop_workers,
    usable_cpus,
)
from repro.parallel.shm import ShmArena
from repro.parallel.worker import ChunkMeta, WorkerPlan, worker_main

__all__ = ["ProcessEngine", "RecoveryFailed", "resolve_num_workers"]


class RecoveryFailed(RuntimeError):
    """Crash recovery exhausted its retry budget; the run cannot continue."""

    def __init__(self, iteration: int, attempts: int, last_error: str):
        super().__init__(
            f"iteration {iteration} could not be recovered after "
            f"{attempts} respawn attempt(s); last error: {last_error}"
        )
        self.iteration = iteration
        self.attempts = attempts


def resolve_num_workers(requested: int | None, num_groups: int) -> int:
    """Effective worker count: requested (or every usable CPU), capped by
    groups."""
    if requested is None:
        requested = usable_cpus()
    if requested < 1:
        raise ValueError(f"num_workers must be >= 1, got {requested}")
    return max(1, min(requested, num_groups))


class ProcessEngine:
    """Shared-memory data-parallel executor for the device loop.

    Parameters
    ----------
    chunks:
        Master-side chunk states keyed by chunk id.  On start, each
        state's ``topics`` is rebound to the shared view (values
        preserved) and its ``theta`` is refreshed from the shared CSR
        buffers after every iteration.
    groups:
        Ordered chunk-id lists, one per group.  Each group samples
        *cumulatively*, in list order, against a replica refreshed from
        the model at the start of the iteration — exactly the serial
        schedule's semantics.
    model:
        The initial ``(phi, totals)`` contents of the shared ``model/*``
        pair; :meth:`publish_model` overwrites them between iterations.

    Besides ``model/*`` the arena holds one int64 ``wdelta{w}/*``
    accumulator pair per OS worker, into which every chunk's signed
    update lands, so the master's merge is one add per worker
    (:func:`repro.core.sync.synchronize_prereduced`) and memory for it
    scales with ``num_workers``.  Replicas are private to the workers:
    each holds one, refreshed per owned group.
    """

    def __init__(
        self,
        chunks: dict[int, ChunkState],
        groups: list[list[int]],
        model: tuple[np.ndarray, np.ndarray],
        *,
        num_topics: int,
        alpha: float,
        beta: float,
        compress: bool,
        seed: int = 0,
        num_workers: int | None = None,
        worker_affinity=None,
        recovery_retries: int = 2,
        recovery_backoff: float = 0.05,
        recovery_log: list | None = None,
    ):
        if not groups:
            raise ValueError("need at least one group")
        if recovery_retries < 0:
            raise ValueError(
                f"recovery_retries must be >= 0, got {recovery_retries}"
            )
        if recovery_backoff < 0:
            raise ValueError(
                f"recovery_backoff must be >= 0, got {recovery_backoff}"
            )
        self.worker_affinity = normalize_affinity(worker_affinity)
        self._chunks = chunks
        self._groups = [list(g) for g in groups]
        self._init_model = model
        self._num_topics = num_topics
        self._alpha = alpha
        self._beta = beta
        self._compress = compress
        self._seed = seed
        self.num_workers = resolve_num_workers(num_workers, len(groups))
        self._arena: ShmArena | None = None
        self._procs: list = []
        self._conns: list = []
        self._finalizer = None
        self._closed = False
        #: iteration id dispatched but not yet collected (overlap pipeline)
        self._inflight: int | None = None
        #: respawn budget per crash incident (0 disables recovery —
        #: and with it the per-dispatch snapshot copies).
        self.recovery_retries = int(recovery_retries)
        #: base host-side backoff before respawn attempt k: base * 2**(k-1).
        self.recovery_backoff = float(recovery_backoff)
        #: one dict per respawn attempt (iteration, attempt, error,
        #: backoff_s); pass a shared list so events survive engine
        #: rebuilds (the owning trainer does).
        self.recovery_log: list = (
            recovery_log if recovery_log is not None else []
        )
        #: the full ("iter", ...) arguments of the in-flight dispatch —
        #: exactly what a recovery replay must re-send.
        self._inflight_args: tuple | None = None
        self._snapshot: dict | None = None

    # -- lifecycle --------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._arena is not None

    def start(self) -> None:
        """Allocate the arena, copy current state in, spawn the workers."""
        if self.started:
            return
        if self._closed:
            # The initial model contents captured at construction are
            # stale by now (training mutated the arena, not them), so a
            # restart would silently pair old counts with new topics.
            raise RuntimeError(
                "ProcessEngine is closed; build a new engine from the "
                "current trainer state instead of restarting this one"
            )
        specs: dict[str, tuple[tuple[int, ...], np.dtype]] = {}
        idx_dt = index_dtype(self._num_topics, self._compress)
        for cid, cs in self._chunks.items():
            dc = cs.chunk
            n = dc.num_tokens
            d = dc.num_local_docs
            specs[f"chunk{cid}/token_words"] = (dc.token_words.shape, dc.token_words.dtype)
            specs[f"chunk{cid}/token_docs"] = (dc.token_docs.shape, dc.token_docs.dtype)
            specs[f"chunk{cid}/word_offsets"] = (dc.word_offsets.shape, dc.word_offsets.dtype)
            specs[f"chunk{cid}/doc_order"] = (dc.doc_order.shape, dc.doc_order.dtype)
            specs[f"chunk{cid}/doc_offsets"] = (dc.doc_offsets.shape, dc.doc_offsets.dtype)
            specs[f"chunk{cid}/topics"] = (cs.topics.shape, cs.topics.dtype)
            # theta CSR at worst-case capacity: nnz can never exceed tokens.
            specs[f"chunk{cid}/theta_indptr"] = ((d + 1,), np.dtype(np.int64))
            specs[f"chunk{cid}/theta_indices"] = ((n,), idx_dt)
            specs[f"chunk{cid}/theta_data"] = ((n,), np.dtype(np.int32))
        phi0, totals0 = self._init_model
        specs["model/phi"] = (phi0.shape, phi0.dtype)
        specs["model/totals"] = (totals0.shape, totals0.dtype)
        for w in range(self.num_workers):
            specs[f"wdelta{w}/phi"] = (phi0.shape, np.dtype(np.int64))
            specs[f"wdelta{w}/totals"] = (totals0.shape, np.dtype(np.int64))

        arena = ShmArena.create(specs)
        for cid, cs in self._chunks.items():
            dc = cs.chunk
            arena.view(f"chunk{cid}/token_words")[...] = dc.token_words
            arena.view(f"chunk{cid}/token_docs")[...] = dc.token_docs
            arena.view(f"chunk{cid}/word_offsets")[...] = dc.word_offsets
            arena.view(f"chunk{cid}/doc_order")[...] = dc.doc_order
            arena.view(f"chunk{cid}/doc_offsets")[...] = dc.doc_offsets
            arena.view(f"chunk{cid}/topics")[...] = cs.topics
            nnz = cs.theta.nnz
            arena.view(f"chunk{cid}/theta_indptr")[...] = cs.theta.indptr
            arena.view(f"chunk{cid}/theta_indices")[:nnz] = cs.theta.indices
            arena.view(f"chunk{cid}/theta_data")[:nnz] = cs.theta.data
            # Master now reads topics/theta through the shared pages.
            cs.topics = arena.view(f"chunk{cid}/topics")
            cs.theta = self._theta_view(arena, cid, nnz)
        arena.view("model/phi")[...] = phi0
        arena.view("model/totals")[...] = totals0

        plans = self._build_plans(arena, attempt=0)
        procs, conns = spawn_workers(arena, plans, worker_main, "repro-exec")
        self._arena = arena
        self._procs = procs
        self._conns = conns
        self._finalizer = weakref.finalize(
            self, shutdown_pool, arena, procs, list(conns)
        )

    def _build_plans(self, arena: ShmArena, attempt: int) -> list[WorkerPlan]:
        """Worker plans for (re)spawning against ``arena``.

        ``attempt`` tags the plans with the recovery attempt they belong
        to and travels into the fault-match context, so injected crashes
        do not re-fire on every replay unless armed to.
        """
        plans = []
        for w in range(self.num_workers):
            owned = [
                (g, tuple(self._chunk_meta(cid) for cid in self._groups[g]))
                for g in range(len(self._groups))
                if g % self.num_workers == w
            ]
            plans.append(
                WorkerPlan(
                    layout=arena.layout,
                    groups=tuple(owned),
                    num_topics=self._num_topics,
                    alpha=self._alpha,
                    beta=self._beta,
                    compress=self._compress,
                    seed=self._seed,
                    worker_index=w,
                    affinity=self.worker_affinity,
                    faults=faults.active_spec(),
                    attempt=attempt,
                )
            )
        return plans

    def close(self) -> None:
        """Stop workers, copy shared state back to private arrays, unlink.

        After close the master's chunk states hold ordinary arrays again,
        so the owning trainer remains fully usable — by constructing a
        *new* engine from that state; a closed engine refuses to restart
        (its construction-time model is stale).
        """
        self._closed = True
        if not self.started:
            return
        self.drain()
        for cs in self._chunks.values():
            cs.topics = np.array(cs.topics)
            cs.theta = CsrCounts(
                indptr=np.array(cs.theta.indptr),
                indices=np.array(cs.theta.indices),
                data=np.array(cs.theta.data),
                num_cols=cs.theta.num_cols,
            )
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        shutdown_pool(self._arena, self._procs, self._conns)
        self._arena = None
        self._procs = []
        self._conns = []

    def __enter__(self) -> ProcessEngine:
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- shared views the master writes between iterations ----------------

    def publish_model(self, phi: np.ndarray, totals: np.ndarray) -> None:
        """Write the merged model into ``model/*``, the buffer every
        worker refreshes its replica from at the next kick-off."""
        self._arena.view("model/phi")[...] = phi
        self._arena.view("model/totals")[...] = totals

    def worker_deltas(self):
        """The per-OS-worker int64 update accumulators.

        Entry ``w`` holds the summed signed update of every group worker
        ``w`` owns; ``model + sum_w`` is the merged model (see
        :func:`repro.core.sync.synchronize_prereduced`).
        """
        return [
            (
                self._arena.view(f"wdelta{w}/phi"),
                self._arena.view(f"wdelta{w}/totals"),
            )
            for w in range(self.num_workers)
        ]

    # -- iteration barrier -------------------------------------------------

    def dispatch_iteration(self, iteration: int, *, want_ll: bool = False) -> None:
        """Kick one parallel pass off without waiting for it.

        The workers sample against the current ``model/*`` contents;
        ``want_ll`` asks them to evaluate their chunks' document-side
        likelihood terms before replying.
        The caller must pair every dispatch with one
        :meth:`collect_iteration`; only one iteration may be in flight.
        """
        self.start()
        if self._inflight is not None:
            raise RuntimeError(
                f"iteration {self._inflight} is already in flight; "
                f"collect it before dispatching another"
            )
        self._capture_snapshot()
        self._inflight_args = (iteration, want_ll)
        self._inflight = iteration
        for conn in self._conns:
            try:
                conn.send(("iter", iteration, want_ll))
            except (BrokenPipeError, ConnectionError, OSError):
                # A worker already died; collect_iteration will see the
                # death (WorkerDied) and run recovery from the snapshot.
                pass

    def collect_iteration(self) -> dict[int, ChunkResult]:
        """Barrier: wait for the in-flight pass, return results by chunk id.

        A :class:`~repro.parallel.pool.WorkerDied` here triggers crash
        recovery: restore the pre-dispatch snapshot, respawn the pool and
        replay the identical kick-off, up to ``recovery_retries`` times
        with exponential backoff — then :class:`RecoveryFailed`.
        """
        if self._inflight is None:
            raise RuntimeError("no iteration in flight")
        iteration = self._inflight
        attempt = 0
        while True:
            try:
                if attempt > 0:
                    self._respawn(attempt)
                return self._collect_once()
            except WorkerDied as exc:
                attempt += 1
                if self.recovery_retries <= 0 or self._snapshot is None:
                    self._inflight = None
                    raise
                if attempt > self.recovery_retries:
                    self._inflight = None
                    raise RecoveryFailed(
                        iteration, attempt - 1, str(exc)
                    ) from exc
                backoff = self.recovery_backoff * (2 ** (attempt - 1))
                self.recovery_log.append(
                    {
                        "iteration": iteration,
                        "attempt": attempt,
                        "error": str(exc),
                        "backoff_s": backoff,
                    }
                )
                if backoff:
                    time.sleep(backoff)

    def _collect_once(self) -> dict[int, ChunkResult]:
        """One collection pass; keeps ``_inflight`` set on WorkerDied so
        the recovery loop can replay, clears it on any other outcome."""
        results: dict[int, ChunkResult] = {}
        try:
            for w, conn in enumerate(self._conns):
                kind, payload = self._recv(w, conn)
                if kind != "done":  # pragma: no cover - protocol misuse
                    raise RuntimeError(f"unexpected worker reply {kind!r}")
                for r in payload:
                    results[r.chunk_id] = r
        except WorkerDied:
            raise
        except Exception:
            self._inflight = None
            raise
        self._inflight = None
        self._inflight_args = None
        self._snapshot = None
        for cid, r in results.items():
            self._chunks[cid].theta = self._theta_view(
                self._arena, cid, r.theta_nnz
            )
        return results

    def drain(self) -> dict[int, ChunkResult] | None:
        """Collect a pipelined in-flight iteration, if any.

        Returns its results so the owning trainer can fold the pending
        updates into its model before reading any shared state (a torn
        copy-back otherwise), or ``None`` when nothing was in flight or
        the workers already died (best effort — the shutdown path
        handles dead workers).
        """
        if self._inflight is None:
            return None
        try:
            return self.collect_iteration()
        except Exception:
            self._inflight = None
            return None

    def workspace_stats(self) -> list[dict]:
        """Kernel-arena occupancy, gathered from the workers.

        One entry per worker process, in worker order: each worker runs
        every group it owns in one arena, and its entry lists those
        ``groups`` and the CPU it pinned itself to (``affinity``).
        """
        if not self.started:
            return []
        if self._inflight is not None:
            # The pipes are FIFO: a stats request behind an in-flight
            # iteration would desynchronise the reply stream.
            raise RuntimeError(
                "workspace stats unavailable while an iteration is in flight"
            )
        for conn in self._conns:
            conn.send(("stats",))
        out: list[dict] = []
        for w, conn in enumerate(self._conns):
            kind, payload = self._recv(w, conn)
            if kind != "stats":  # pragma: no cover - protocol misuse
                raise RuntimeError(f"unexpected worker reply {kind!r}")
            out.append(payload)
        return out

    # -- crash recovery ----------------------------------------------------

    def _capture_snapshot(self) -> None:
        """Copy the shared state workers are about to mutate.

        Chunk topic assignments plus theta CSR contents, keyed by chunk
        id.  Nothing else: ``model/*`` is master-written only (a replay
        refreshes every replica from it again), and the per-worker
        accumulators are zeroed worker-side at iteration start.  Disabled
        when
        ``recovery_retries`` is 0 — then a crash is terminal and the
        copies would be waste.
        """
        if self.recovery_retries <= 0:
            return
        arena = self._arena
        self._snapshot = {}
        for cid, cs in self._chunks.items():
            nnz = cs.theta.nnz
            self._snapshot[cid] = (
                np.array(arena.view(f"chunk{cid}/topics")),
                np.array(arena.view(f"chunk{cid}/theta_indptr")),
                np.array(arena.view(f"chunk{cid}/theta_indices")[:nnz]),
                np.array(arena.view(f"chunk{cid}/theta_data")[:nnz]),
                nnz,
            )

    def _restore_snapshot(self) -> None:
        """Write the recovery snapshot back into the arena in place."""
        arena = self._arena
        for cid, (topics, indptr, indices, data, nnz) in self._snapshot.items():
            arena.view(f"chunk{cid}/topics")[...] = topics
            arena.view(f"chunk{cid}/theta_indptr")[...] = indptr
            arena.view(f"chunk{cid}/theta_indices")[:nnz] = indices
            arena.view(f"chunk{cid}/theta_data")[:nnz] = data
            self._chunks[cid].theta = self._theta_view(arena, cid, nnz)

    def _respawn(self, attempt: int) -> None:
        """Tear down the dead pool, roll back, respawn, replay the dispatch.

        The arena stays mapped and linked throughout; only the worker
        processes are replaced.  The replacement plans carry ``attempt``
        so armed faults do not re-fire by default (see
        :mod:`repro.faults`).
        """
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        stop_workers(self._procs, self._conns)
        self._restore_snapshot()
        arena = self._arena
        plans = self._build_plans(arena, attempt=attempt)
        procs, conns = spawn_workers(arena, plans, worker_main, "repro-exec")
        self._procs = procs
        self._conns = conns
        self._finalizer = weakref.finalize(
            self, shutdown_pool, arena, procs, list(conns)
        )
        for w, conn in enumerate(self._conns):
            try:
                conn.send(("iter", *self._inflight_args))
            except (BrokenPipeError, ConnectionError, OSError) as exc:
                # Count an immediately-dead replacement against the
                # retry budget like any other death.
                raise WorkerDied(
                    "execution", w, self._procs[w].exitcode
                ) from exc

    # -- internals ---------------------------------------------------------

    def _recv(self, w: int, conn) -> tuple:
        return recv_reply("execution", w, self._procs[w], conn)

    def _chunk_meta(self, cid: int) -> ChunkMeta:
        dc = self._chunks[cid].chunk
        return ChunkMeta(
            chunk_id=cid,
            spec=dc.spec,
            num_words=dc.num_words,
            block_plan=dc.block_plan,
        )

    def _theta_view(self, arena: ShmArena, cid: int, nnz: int) -> CsrCounts:
        return CsrCounts(
            indptr=arena.view(f"chunk{cid}/theta_indptr"),
            indices=arena.view(f"chunk{cid}/theta_indices")[:nnz],
            data=arena.view(f"chunk{cid}/theta_data")[:nnz],
            num_cols=self._num_topics,
        )
