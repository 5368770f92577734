"""Process-parallel serving: fan fold-in calls over OS workers.

Training needs phi synchronization; serving does not — an
:class:`~repro.model.inference.InferenceSession` folds documents in
against a **frozen** model, so documents are embarrassingly parallel.
:class:`InferenceWorkerPool` exploits that: it builds the model's
float32 ``p* = (phi + beta) / (N_k + beta V)`` in plane layout, the one
matrix the fold-in tiles read, straight into a read-only
:class:`~repro.parallel.shm.ShmArena` (``V * nb * b * 4`` bytes: K zero
padded to ``nb`` whole blocks of ``b`` topics), the only copy a pooled
session has.  Persistent OS workers map it, and every ``transform``
call of a pooled session sends each worker at most one share of its
documents, in one message.  No count matrices travel per request —
only the request documents and the resulting ``(docs, K)`` theta blocks
cross the pipes — so serving throughput scales with cores (near-linear
until the pipes saturate).

Determinism: each document travels with an explicit seed spec
``(entropy, spawn_index)`` naming its RNG stream
``SeedSequence(entropy, spawn_key=(spawn_index,))`` — exactly the
stream the in-process path derives — so the pooled result is
**bit-identical per document** to ``num_workers=1`` for any worker
count or share-to-worker assignment, and coalesced
multi-request calls (``transform_many``) keep every request's
stand-alone draws (asserted by tests/test_inference_session.py).

A call is a ``send`` then one ``receive`` per share: a library
session runs them in turn, and the serving tier receives each share
when its worker's pipe turns readable.

Lifecycle mirrors the training engine: the pool starts on its first
call unless its owner starts it sooner (the serving tier does, when it
installs a generation), ``close()`` is idempotent, ``kill()`` ends
failed or wedged workers at once, a closed or killed pool rebuilds its
arena from the model on the next ``start()``, and a finalizer backstop
keeps abandoned owners from leaking shared-memory segments or worker
processes.
"""

from __future__ import annotations

import signal
import traceback
import weakref
from dataclasses import dataclass

import numpy as np

from repro import faults
from repro.model.artifact import TopicModel
from repro.model.inference import (
    FoldInCall,
    InferenceSession,
    _p_star_planes,
    _plane_shape,
)
from repro.parallel.pool import (
    WorkerDied,
    normalize_affinity,
    recv_reply,
    set_worker_affinity,
    shutdown_pool,
    spawn_workers,
    stop_workers,
)
from repro.parallel.shm import ArenaLayout, ShmArena

__all__ = ["InferenceWorkerPool"]


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
        model: TopicModel,
        num_workers: int,
        worker_affinity=None,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = int(num_workers)
        self._model = model
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
        """Build p* into shared memory and spawn the workers."""
        if self.started:
            return
        model = self._model
        shape = _plane_shape(model.num_topics, model.num_words)
        arena = ShmArena.create({"pstar": (shape, np.float32)})
        _p_star_planes(model.word_given_topic(), arena.view("pstar"))
        plans = [
            _InferencePlan(
                layout=arena.layout,
                alpha=model.alpha,
                num_topics=model.num_topics,
                num_words=model.num_words,
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
        """Stop workers and unlink the arena (idempotent); the next
        :meth:`start` rebuilds both from the model."""
        if not self.started:
            return
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        shutdown_pool(self._arena, self._procs, self._conns)
        self._arena = None
        self._procs = []
        self._conns = []

    def kill(self) -> None:
        """:meth:`close` without asking the workers to stop: after a
        failed or wedged call, they are terminated at once."""
        stop_workers(self._procs, self._conns)
        self.close()

    # -- serving ----------------------------------------------------------

    def send(
        self, call: FoldInCall, sweeps: int, burn: int
    ) -> list[np.ndarray]:
        """Deal the longest-first ``call.order`` in turn into
        ``min(num_workers, documents)`` shares of nearly equal tokens,
        send worker ``w`` share ``w`` and return the shares.  Each
        document travels with its stream key, so the deal moves no draw.
        Starts the pool if it is not running.
        """
        self.start()
        n = min(self.num_workers, call.order.size)
        shares = [call.order[s::n] for s in range(n)]
        for w, share in enumerate(shares):
            try:
                self._conns[w].send((
                    "infer",
                    [call.docs[i] for i in share],
                    [call.specs[i] for i in share],
                    sweeps,
                    burn,
                ))
            except (BrokenPipeError, ConnectionError, OSError) as exc:
                # A worker that died between calls surfaces as a broken
                # pipe on send; name the worker instead of leaking the
                # raw OS error.
                raise WorkerDied(
                    "inference", w, self._procs[w].exitcode
                ) from exc
        return shares

    def receive(self, w: int, share: np.ndarray, call: FoldInCall) -> None:
        """Read worker ``w``'s theta block into ``call.out[share]``; a
        worker that died or failed raises (see ``recv_reply``)."""
        kind, theta = recv_reply("inference", w, self._procs[w], self._conns[w])
        if kind != "theta":  # pragma: no cover - protocol misuse
            raise RuntimeError(f"unexpected worker reply {kind!r}")
        call.out[share] = theta

    def transform(self, call: FoldInCall, sweeps: int, burn: int) -> None:
        """Fold ``call`` in and wait for every share.  A failed call
        leaves dead workers or unread replies, so it kills the pool; the
        next call starts a clean one."""
        try:
            for w, share in enumerate(self.send(call, sweeps, burn)):
                self.receive(w, share, call)
        except Exception:
            self.kill()
            raise

    def fileno(self, w: int) -> int:
        """Worker ``w``'s pipe, readable once its reply (or EOF) is in."""
        return self._conns[w].fileno()

    def describe(self) -> dict:
        """Pool state; ``worker_peak_rss_mb`` is each live worker's VmHWM."""
        arena = self._arena
        return {
            "num_workers": self.num_workers,
            "worker_affinity": self.worker_affinity,
            "started": arena is not None,
            "arena_bytes": arena.nbytes if arena is not None else 0,
            "worker_peak_rss_mb": [_peak_rss_mb(p.pid) for p in self._procs],
        }


def _inference_worker_main(conn, plan: _InferencePlan) -> None:
    """Worker loop: attach the p* arena, serve fold-in requests.

    Protocol: ``("infer", docs, seed specs, sweeps, burn)`` — one share
    of a call — answers ``("theta", theta block)`` with one row per
    document; ``("stop",)`` exits; any exception answers
    ``("error", traceback)`` and exits.
    """
    # A worker forked from a serving event loop inherits its signal
    # handling: SIGTERM would run the loop's no-op handler and write the
    # signal into the server's own wakeup pipe, which the server reads
    # as its own SIGTERM.  Restore the defaults, so a terminate ends
    # this worker, and only it.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
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
        )
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            if msg[0] != "infer":  # pragma: no cover - protocol misuse
                raise ValueError(f"unknown worker command {msg[0]!r}")
            _, docs, specs, sweeps, burn = msg
            faults.sleep_if("serve_hang", op="infer", attempt=plan.attempt)
            # Each spec names its document's stream outright, so a worker
            # derives only its own documents' streams, and coalesced
            # requests keep their stand-alone draws.
            theta = np.empty((len(docs), plan.num_topics), dtype=np.float64)
            session._fold_in(
                docs, specs, np.arange(len(docs)), sweeps, burn, theta
            )
            conn.send(("theta", theta))
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
            session._p_planes = None
        if arena is not None:
            arena.close()
        conn.close()
