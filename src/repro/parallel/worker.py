"""Worker-process side of the parallel execution engine.

Each OS worker owns a fixed subset of *replica groups* — for CuLDA a
group is one simulated device (its phi/totals replica plus its chunk
list), for the LDA* baseline a group is one parameter-server worker.
Per iteration barrier the worker runs, for every chunk of every owned
group in order:

    sample_chunk  ->  apply_phi_update  ->  theta rebuild

against the group's shared-memory phi/totals replica, writing new topic
assignments and the rebuilt theta CSR straight into the shared block.
Only the small per-chunk statistics travel back over the pipe.

Determinism: the RNG stream of a chunk pass is keyed by
``(seed, iteration, chunk_id)`` (see :class:`repro.core.rng.RngPool`),
and chunks within a group run in the same order as the serial schedule,
so the draws are **bit-identical** to serial execution no matter how
groups are mapped to workers.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass

import numpy as np

from repro import faults
from repro.core.likelihood import chunk_doc_terms
from repro.core.rng import RngPool
from repro.core.sampler import sample_chunk
from repro.core.sparse import from_assignments
from repro.core.updates import apply_phi_update
from repro.corpus.encoding import BlockPlan, DeviceChunk
from repro.corpus.partition import ChunkSpec
from repro.parallel.pool import set_worker_affinity
from repro.parallel.shm import ArenaLayout, ShmArena
from repro.perf import Workspace

__all__ = [
    "ChunkMeta",
    "ChunkResult",
    "WorkerPlan",
    "worker_main",
]


@dataclass(frozen=True)
class ChunkMeta:
    """Everything a worker needs to rebuild one chunk from the arena."""

    chunk_id: int
    spec: ChunkSpec
    num_words: int
    block_plan: BlockPlan  # small arrays; picklable


@dataclass(frozen=True)
class ChunkResult:
    """Per-chunk statistics returned to the master each iteration."""

    chunk_id: int
    stats: object  # SamplingStats
    changed: int
    theta_nnz_pre: int
    theta_nnz: int  # after the rebuild
    #: document-side likelihood terms of this chunk's fresh theta —
    #: ``(plus, minus)`` per :func:`repro.core.likelihood.chunk_doc_terms`
    #: — computed worker-side when the master requested likelihood this
    #: iteration, else ``None``.
    ll_terms: tuple[float, float] | None = None


@dataclass(frozen=True)
class WorkerPlan:
    """Picklable start-up bundle for one worker process.

    ``mode`` selects the update contract:

    - ``"replica"`` (CuLDA): group ``g`` samples against replica ``g``
      *cumulatively* — each chunk pass applies its updates to the
      replica before the next chunk of the group samples;
    - ``"delta"`` (LDA*): every chunk samples against the single shared
      ``model/*`` snapshot (read-only within an iteration) and scatters
      its updates into this worker's ``wdelta{w}/*`` accumulators —
      the parameter-server push, one delta matrix per OS worker instead
      of a full model replica per simulated cluster worker.
    """

    layout: ArenaLayout
    groups: tuple[tuple[int, tuple[ChunkMeta, ...]], ...]  # (group idx, chunks)
    num_topics: int
    alpha: float
    beta: float
    compress: bool
    compute_dtype: str
    seed: int
    mode: str = "replica"
    worker_index: int = 0
    #: replica-mode sync path: "barrier" leaves reconciliation entirely
    #: to the master; "prereduce"/"overlap" additionally scatter every
    #: update into this worker's shared ``wacc{w}/*`` accumulator, and
    #: "overlap" also honours refresh kick-offs (copy ``model/*`` into
    #: the owned replicas before sampling).
    sync_mode: str = "barrier"
    #: optional CPU ids; this worker pins itself to
    #: ``affinity[worker_index % len(affinity)]`` at start-up.
    affinity: tuple[int, ...] | None = None
    #: fault spec armed in this worker (see :mod:`repro.faults`); carried
    #: in the plan so a respawned worker re-arms the exact same faults.
    faults: str | None = None
    #: recovery attempt this worker belongs to (0 = the original spawn);
    #: part of the fault-match context so an injected crash does not, by
    #: default, also kill every replay.
    attempt: int = 0


class _LocalChunk:
    """A worker's live handle on one chunk: shm views + private theta."""

    def __init__(self, meta: ChunkMeta, arena: ShmArena, num_topics: int,
                 compress: bool):
        cid = meta.chunk_id
        self.meta = meta
        self.chunk = DeviceChunk(
            spec=meta.spec,
            num_words=meta.num_words,
            token_words=arena.view(f"chunk{cid}/token_words"),
            token_docs=arena.view(f"chunk{cid}/token_docs"),
            word_offsets=arena.view(f"chunk{cid}/word_offsets"),
            doc_order=arena.view(f"chunk{cid}/doc_order"),
            doc_offsets=arena.view(f"chunk{cid}/doc_offsets"),
            block_plan=meta.block_plan,
        )
        self.topics = arena.view(f"chunk{cid}/topics")
        self.theta_indptr = arena.view(f"chunk{cid}/theta_indptr")
        self.theta_indices = arena.view(f"chunk{cid}/theta_indices")
        self.theta_data = arena.view(f"chunk{cid}/theta_data")
        # Private theta: rebuilt from the shared assignments, identical to
        # the master's (from_assignments is deterministic).
        self.theta = from_assignments(
            self.chunk.token_docs,
            self.topics.astype(np.int64),
            num_rows=self.chunk.num_local_docs,
            num_cols=num_topics,
            compress=compress,
        )

    def publish_theta(self) -> None:
        """Copy the rebuilt CSR into the shared slots (capacity = tokens)."""
        nnz = self.theta.nnz
        self.theta_indptr[...] = self.theta.indptr
        np.copyto(self.theta_indices[:nnz], self.theta.indices, casting="same_kind")
        np.copyto(self.theta_data[:nnz], self.theta.data, casting="same_kind")


def run_chunk_pass(
    lc: _LocalChunk,
    phi: np.ndarray,
    totals: np.ndarray,
    iteration: int,
    pool: RngPool,
    num_topics: int,
    alpha: float,
    beta: float,
    compress: bool,
    workspace: Workspace,
    update_phi: np.ndarray | None = None,
    update_totals: np.ndarray | None = None,
    accum_phi: np.ndarray | None = None,
    accum_totals: np.ndarray | None = None,
    want_ll: bool = False,
) -> ChunkResult:
    """The functional half of one chunk pass (no simulated-clock charges).

    Mirrors :func:`repro.core.scheduler.run_chunk_kernels` minus the
    ``gpu.launch`` accounting, which stays on the master where the
    simulated devices live.  ``update_phi``/``update_totals`` redirect
    the count updates away from the sampled-against arrays (delta mode);
    by default the updates land on ``phi``/``totals`` themselves.
    ``accum_phi``/``accum_totals`` additionally receive the same signed
    update (the replica-mode pre-reduce).  ``want_ll`` evaluates the
    chunk's document-side likelihood terms from the fresh theta before
    replying, so the master never has to scan shared theta between
    barriers.
    """
    rng = pool.chunk_stream(iteration, lc.meta.chunk_id)
    theta_nnz_pre = lc.theta.nnz
    result = sample_chunk(
        lc.chunk, lc.topics, lc.theta, phi, totals,
        alpha=alpha, beta=beta, rng=rng, workspace=workspace,
    )
    changed = apply_phi_update(
        phi if update_phi is None else update_phi,
        totals if update_totals is None else update_totals,
        lc.chunk.token_words, lc.topics, result.new_topics,
        accum_phi=accum_phi, accum_totals=accum_totals,
    )
    np.copyto(lc.topics, result.new_topics, casting="same_kind")
    lc.theta = from_assignments(
        lc.chunk.token_docs,
        lc.topics.astype(np.int64),
        num_rows=lc.chunk.num_local_docs,
        num_cols=num_topics,
        compress=compress,
    )
    lc.publish_theta()
    ll_terms = None
    if want_ll:
        ll_terms = chunk_doc_terms(
            lc.theta.data, lc.chunk.doc_offsets, num_topics, alpha
        )
    return ChunkResult(
        chunk_id=lc.meta.chunk_id,
        stats=result.stats,
        changed=changed,
        theta_nnz_pre=theta_nnz_pre,
        theta_nnz=lc.theta.nnz,
        ll_terms=ll_terms,
    )


def worker_main(conn, plan: WorkerPlan) -> None:
    """Entry point of one worker process: attach, loop on the pipe.

    Protocol (master -> worker): ``("iter", i, want_ll, refresh)`` runs
    iteration ``i`` over every owned group and answers
    ``("done", [ChunkResult...])`` — with ``refresh`` the worker first
    copies the shared ``model/*`` buffers into its owned replicas (the
    overlap-mode broadcast, performed in parallel across workers), and
    with ``want_ll`` each result carries its chunk's document-side
    likelihood terms; ``("stats",)`` answers ``("stats", [workspace
    descriptions])``; ``("stop",)`` exits.  Any exception answers
    ``("error", traceback)`` and exits.
    """
    arena = None
    try:
        faults.install(plan.faults)
        faults.crash_if(
            "shm_attach", worker=plan.worker_index, attempt=plan.attempt
        )
        applied_cpu = set_worker_affinity(plan.worker_index, plan.affinity)
        arena = ShmArena.attach(plan.layout)
        pool = RngPool(plan.seed)
        delta = plan.mode == "delta"
        prereduce = not delta and plan.sync_mode in ("prereduce", "overlap")
        delta_phi = delta_totals = None
        accum_phi = accum_totals = None
        model_phi = model_totals = None
        if delta:
            # One snapshot, one per-worker delta pair, one workspace —
            # mirrors the serial LDA* loop's shared-arena structure.
            shared_ws = Workspace(plan.compute_dtype)
            model_phi = arena.view("model/phi")
            model_totals = arena.view("model/totals")
            delta_phi = arena.view(f"wdelta{plan.worker_index}/phi")
            delta_totals = arena.view(f"wdelta{plan.worker_index}/totals")
        if prereduce:
            accum_phi = arena.view(f"wacc{plan.worker_index}/phi")
            accum_totals = arena.view(f"wacc{plan.worker_index}/totals")
        if not delta and plan.sync_mode == "overlap":
            model_phi = arena.view("model/phi")
            model_totals = arena.view("model/totals")
        groups = []
        for group_idx, metas in plan.groups:
            if delta:
                phi, totals, ws = model_phi, model_totals, shared_ws
            else:
                phi = arena.view(f"rep{group_idx}/phi")
                totals = arena.view(f"rep{group_idx}/totals")
                ws = Workspace(plan.compute_dtype)
            chunks = [
                _LocalChunk(m, arena, plan.num_topics, plan.compress)
                for m in metas
            ]
            groups.append((group_idx, phi, totals, chunks, ws))
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "stop":
                break
            if cmd == "stats":
                conn.send(
                    (
                        "stats",
                        [
                            (gi, {**ws.describe(), "affinity": applied_cpu})
                            for gi, _, _, _, ws in groups
                        ],
                    )
                )
                continue
            if cmd != "iter":  # pragma: no cover - protocol misuse
                raise ValueError(f"unknown worker command {cmd!r}")
            _, iteration, want_ll, refresh = msg
            if refresh:
                if model_phi is None:  # pragma: no cover - protocol misuse
                    raise ValueError("refresh kick-off without a model buffer")
                faults.crash_if(
                    "worker_crash", phase="broadcast", iteration=iteration,
                    worker=plan.worker_index, attempt=plan.attempt,
                )
                # The overlap broadcast: each worker copies the freshly
                # reconciled model into its own replicas, so the master
                # never pays the O(G*K*V) write.
                for _, phi, totals, _, _ in groups:
                    phi[...] = model_phi
                    totals[...] = model_totals
            if delta:
                delta_phi[...] = 0
                delta_totals[...] = 0
            if prereduce:
                accum_phi[...] = 0
                accum_totals[...] = 0
            results = []
            for _, phi, totals, chunks, workspace in groups:
                for lc in chunks:
                    faults.crash_if(
                        "worker_crash", phase="sample", iteration=iteration,
                        chunk=lc.meta.chunk_id, worker=plan.worker_index,
                        attempt=plan.attempt,
                    )
                    results.append(
                        run_chunk_pass(
                            lc, phi, totals, iteration, pool,
                            plan.num_topics, plan.alpha, plan.beta,
                            plan.compress, workspace,
                            update_phi=delta_phi,
                            update_totals=delta_totals,
                            accum_phi=accum_phi,
                            accum_totals=accum_totals,
                            want_ll=want_ll,
                        )
                    )
            # "merge" phase: sampling done and published, reply not yet
            # sent — the worker's pre-reduced accumulators are written
            # but the master has not observed the barrier.
            faults.crash_if(
                "worker_crash", phase="merge", iteration=iteration,
                worker=plan.worker_index, attempt=plan.attempt,
            )
            conn.send(("done", results))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - shutdown races
        pass
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - master already gone
            pass
    finally:
        if arena is not None:
            arena.close()
        conn.close()
