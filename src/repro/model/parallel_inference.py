"""Process-parallel serving: fan fold-in batches over OS workers.

Training needs phi synchronization; serving does not — an
:class:`~repro.model.inference.InferenceSession` folds documents in
against a **frozen** model, so documents are embarrassingly parallel.
:class:`InferenceWorkerPool` exploits that: the session's precomputed
float32 ``p* = (phi + beta) / (N_k + beta V)`` transpose, the one matrix
its fold-in tiles read, is published once into a read-only
:class:`~repro.parallel.shm.ShmArena` (``V * K * 4`` bytes), persistent
OS workers map it, and every ``transform`` call wide enough to split (the session
routes narrower ones in-process) round-robins its fold-in batches over
the workers.  No count matrices travel per request — only the
request documents and the resulting ``(docs, K)`` theta blocks cross the
pipes — so serving throughput scales with cores (near-linear until the
pipes saturate).

Determinism: each document travels with an explicit seed spec
``(entropy, spawn_index)`` naming its RNG stream
``SeedSequence(entropy, spawn_key=(spawn_index,))`` — exactly the
stream the in-process path derives — so the pooled result is
**bit-identical per document** to ``num_workers=1`` for any worker
count, batch size, or batch-to-worker assignment, and coalesced
multi-request calls (``transform_many``) keep every request's
stand-alone draws (asserted by tests/test_inference_session.py).

Lifecycle mirrors the training engine: lazy start, idempotent
``close()`` (a closed pool can be rebuilt by its owning session), and a
finalizer backstop so abandoned sessions cannot leak shared-memory
segments or worker processes.
"""

from __future__ import annotations

import traceback
import weakref
from dataclasses import dataclass

import numpy as np

from repro import faults
from repro.parallel.pool import (
    WorkerDied,
    normalize_affinity,
    recv_reply,
    set_worker_affinity,
    shutdown_pool,
    spawn_workers,
)
from repro.parallel.shm import ArenaLayout, ShmArena

__all__ = ["InferenceWorkerPool", "resolve_inference_workers"]


def resolve_inference_workers(requested: int | None) -> int:
    """Effective pool size: ``None``/1 means in-process (no pool)."""
    if requested is None:
        return 1
    if requested < 1:
        raise ValueError(f"num_workers must be >= 1, got {requested}")
    return int(requested)


def _peak_rss_mb(pid: int) -> float | None:
    """Peak resident set (``VmHWM``) of ``pid`` in MB, ``None`` if unknown."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


@dataclass(frozen=True)
class _InferencePlan:
    """Picklable start-up bundle for one inference worker."""

    layout: ArenaLayout
    alpha: float
    num_topics: int
    num_words: int
    batch_docs: int
    worker_index: int
    affinity: tuple[int, ...] | None = None
    #: Fault spec (see :mod:`repro.faults`) re-armed inside the worker.
    faults: str | None = None
    #: 0 on the first spawn; bumps on every pool restart so one-shot
    #: faults don't re-fire in replacement workers.
    attempt: int = 0


class InferenceWorkerPool:
    """Persistent fold-in workers over one shared read-only p* arena."""

    def __init__(
        self,
        p_star_t: np.ndarray,
        alpha: float,
        num_topics: int,
        num_words: int,
        num_workers: int,
        batch_docs: int,
        worker_affinity=None,
    ):
        if num_workers < 2:
            raise ValueError("a pool needs at least 2 workers")
        self.num_workers = int(num_workers)
        self._p_star_t = p_star_t
        self._alpha = float(alpha)
        self._num_topics = int(num_topics)
        self._num_words = int(num_words)
        self._batch_docs = int(batch_docs)
        self.worker_affinity = normalize_affinity(worker_affinity)
        self._arena: ShmArena | None = None
        self._procs: list = []
        self._conns: list = []
        self._finalizer = None
        self._starts = 0

    # -- lifecycle --------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._arena is not None

    def start(self) -> None:
        """Publish p* into shared memory and spawn the workers."""
        if self.started:
            return
        arena = ShmArena.create(
            {"pstar": (self._p_star_t.shape, self._p_star_t.dtype)}
        )
        arena.view("pstar")[...] = self._p_star_t
        plans = [
            _InferencePlan(
                layout=arena.layout,
                alpha=self._alpha,
                num_topics=self._num_topics,
                num_words=self._num_words,
                batch_docs=self._batch_docs,
                worker_index=w,
                affinity=self.worker_affinity,
                faults=faults.active_spec(),
                attempt=self._starts,
            )
            for w in range(self.num_workers)
        ]
        self._starts += 1
        procs, conns = spawn_workers(
            arena, plans, _inference_worker_main, "repro-infer"
        )
        self._arena = arena
        self._procs = procs
        self._conns = conns
        self._finalizer = weakref.finalize(
            self, shutdown_pool, arena, procs, list(conns)
        )

    def close(self) -> None:
        """Stop workers, unlink the arena (idempotent; pool can be rebuilt
        by constructing a new one — the owning session does exactly that)."""
        if not self.started:
            return
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        shutdown_pool(self._arena, self._procs, self._conns)
        self._arena = None
        self._procs = []
        self._conns = []

    # -- serving ----------------------------------------------------------

    def transform_batches(
        self,
        batches: list[
            tuple[np.ndarray, list[np.ndarray], list[tuple[int, int]]]
        ],
        sweeps: int,
        burn: int,
        out: np.ndarray,
    ) -> None:
        """Scatter ``batches`` over the workers; gather theta into ``out``.

        ``batches`` are ``(original-index array, [token arrays],
        [seed specs])`` triples of non-empty documents; every document
        carries its own ``(entropy, spawn_index)`` stream key, so
        batch-to-worker assignment cannot move a draw.
        """
        self.start()
        assigned = [[] for _ in range(self.num_workers)]
        for j, batch in enumerate(batches):
            assigned[j % self.num_workers].append(batch)
        try:
            active = []
            for w, conn in enumerate(self._conns):
                if not assigned[w]:
                    continue
                try:
                    conn.send(("infer", assigned[w], sweeps, burn))
                except (BrokenPipeError, ConnectionError, OSError) as exc:
                    # A worker that died between requests surfaces as a
                    # broken pipe on send; name the worker instead of
                    # leaking the raw OS error.
                    raise WorkerDied(
                        "inference", w, self._procs[w].exitcode
                    ) from exc
                active.append(w)
            for w in active:
                kind, payload = self._recv(w, self._conns[w])
                if kind != "theta":  # pragma: no cover - protocol misuse
                    raise RuntimeError(f"unexpected worker reply {kind!r}")
                for indices, theta in payload:
                    out[indices] = theta
        except Exception:
            # A failed request leaves dead workers and/or unread replies
            # behind; tear the pool down so the owning session rebuilds a
            # clean one on its next call instead of reading stale theta.
            self.close()
            raise

    # -- internals --------------------------------------------------------

    def _recv(self, w: int, conn) -> tuple:
        return recv_reply("inference", w, self._procs[w], conn)

    def describe(self) -> dict:
        """Pool state; ``worker_peak_rss_mb`` is each live worker's VmHWM.

        Safe to call from another thread while a dispatch runs: it reads
        one snapshot of the arena and process list.
        """
        arena, procs = self._arena, self._procs
        return {
            "num_workers": self.num_workers,
            "worker_affinity": self.worker_affinity,
            "started": arena is not None,
            "arena_bytes": arena.nbytes if arena is not None else 0,
            "worker_peak_rss_mb": [_peak_rss_mb(p.pid) for p in procs],
        }


def _inference_worker_main(conn, plan: _InferencePlan) -> None:
    """Worker loop: attach the p* arena, serve fold-in requests.

    Protocol: ``("infer", batches, sweeps, burn)`` — with each batch a
    ``(indices, docs, seed specs)`` triple — answers
    ``("theta", [(indices, theta block), ...])``; ``("stop",)`` exits;
    any exception answers ``("error", traceback)`` and exits.
    """
    from repro.model.inference import InferenceSession

    arena = None
    session = None
    try:
        faults.install(plan.faults)
        faults.crash_if(
            "shm_attach", worker=plan.worker_index, attempt=plan.attempt
        )
        set_worker_affinity(plan.worker_index, plan.affinity)
        arena = ShmArena.attach(plan.layout)
        session = InferenceSession._from_matrix(
            arena.view("pstar"),
            alpha=plan.alpha,
            num_topics=plan.num_topics,
            num_words=plan.num_words,
            batch_docs=plan.batch_docs,
        )
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            if msg[0] != "infer":  # pragma: no cover - protocol misuse
                raise ValueError(f"unknown worker command {msg[0]!r}")
            _, batches, sweeps, burn = msg
            replies = []
            for indices, docs, specs in batches:
                # Each document's spec names its stream outright —
                # child i of SeedSequence(e).spawn(D) is exactly
                # SeedSequence(e, spawn_key=(i,)) — so each worker
                # derives only its *own* documents' streams, and
                # coalesced requests keep their stand-alone draws.
                seeds = [
                    np.random.SeedSequence(
                        entropy=entropy, spawn_key=(int(spawn),)
                    )
                    for entropy, spawn in specs
                ]
                theta = session._fold_in_batch(docs, seeds, sweeps, burn)
                replies.append((indices, theta))
            conn.send(("theta", replies))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - shutdown races
        pass
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - master already gone
            pass
    finally:
        if session is not None:
            # Drop the arena view (the session's only one: a worker
            # never scores) before unmapping, so the mmap close does not
            # see exported buffer pointers (keeps worker exit silent
            # instead of leaving a BufferError for __del__).
            session._p_star_t = None
        if arena is not None:
            arena.close()
        conn.close()
