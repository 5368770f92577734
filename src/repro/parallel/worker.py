"""Worker-process side of the parallel execution engine.

Each OS worker owns a fixed subset of *replica groups* — for CuLDA a
group is one simulated device (its phi/totals replica plus its chunk
list), for the LDA* baseline a group is one parameter-server worker.
Per iteration barrier the worker runs the core chunk pass,
:func:`repro.core.scheduler.chunk_pass` (sample -> update-phi ->
update-theta, the same code serial execution runs), for every chunk of
every owned group in order, against the group's shared-memory phi/totals
replica.  The pass writes the new topic assignments straight into the
shared block; the worker then publishes the rebuilt theta CSR there too.
Only the small per-chunk :class:`~repro.core.scheduler.ChunkResult`
travels back over the pipe, and the master charges the simulated clock
from it.

Determinism: the RNG stream of a chunk pass is keyed by
``(seed, iteration, chunk_id)`` (see :class:`repro.core.rng.RngPool`),
and chunks within a group run in the same order as the serial schedule,
so the draws are **bit-identical** to serial execution no matter how
groups are mapped to workers.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, replace

import numpy as np

from repro import faults
from repro.core.likelihood import chunk_doc_terms
from repro.core.model import ChunkState
from repro.core.rng import RngPool
from repro.core.scheduler import ChunkResult, chunk_pass
from repro.corpus.encoding import BlockPlan, DeviceChunk
from repro.corpus.partition import ChunkSpec
from repro.parallel.pool import set_worker_affinity
from repro.parallel.shm import ArenaLayout, ShmArena
from repro.perf import Workspace

__all__ = [
    "ChunkMeta",
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
    """A worker's live handle on one chunk: a :class:`ChunkState` over the
    shared token arrays and topics, with a private theta it publishes."""

    def __init__(self, meta: ChunkMeta, arena: ShmArena, num_topics: int,
                 compress: bool):
        cid = meta.chunk_id
        chunk = DeviceChunk(
            spec=meta.spec,
            num_words=meta.num_words,
            token_words=arena.view(f"chunk{cid}/token_words"),
            token_docs=arena.view(f"chunk{cid}/token_docs"),
            word_offsets=arena.view(f"chunk{cid}/word_offsets"),
            doc_order=arena.view(f"chunk{cid}/doc_order"),
            doc_offsets=arena.view(f"chunk{cid}/doc_offsets"),
            block_plan=meta.block_plan,
        )
        self.cs = ChunkState(
            chunk=chunk, topics=arena.view(f"chunk{cid}/topics"), theta=None
        )
        # Private theta: rebuilt from the shared assignments, identical to
        # the master's (from_assignments is deterministic).
        self.cs.rebuild_theta(num_topics, compress)
        self.theta_indptr = arena.view(f"chunk{cid}/theta_indptr")
        self.theta_indices = arena.view(f"chunk{cid}/theta_indices")
        self.theta_data = arena.view(f"chunk{cid}/theta_data")

    def publish_theta(self) -> None:
        """Copy the rebuilt CSR into the shared slots (capacity = tokens)."""
        theta = self.cs.theta
        nnz = theta.nnz
        self.theta_indptr[...] = theta.indptr
        np.copyto(self.theta_indices[:nnz], theta.indices, casting="same_kind")
        np.copyto(self.theta_data[:nnz], theta.data, casting="same_kind")


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
    """One chunk pass in a worker: the core pass, then publish.

    Runs :func:`repro.core.scheduler.chunk_pass` (its topics land in the
    shared view directly), copies the rebuilt theta into the shared
    slots and, with ``want_ll``, evaluates the chunk's document-side
    likelihood terms from the fresh theta, so the master never has to
    scan shared theta between barriers.  The clock is charged on the
    master, where the simulated devices live.
    """
    r = chunk_pass(
        lc.cs, phi, totals, iteration, pool, num_topics, alpha, beta,
        compress, workspace,
        update_phi=update_phi, update_totals=update_totals,
        accum_phi=accum_phi, accum_totals=accum_totals,
    )
    lc.publish_theta()
    if not want_ll:
        return r
    return replace(
        r,
        ll_terms=chunk_doc_terms(
            lc.cs.theta.data, lc.cs.chunk.doc_offsets, num_topics, alpha
        ),
    )


def worker_main(conn, plan: WorkerPlan) -> None:
    """Entry point of one worker process: attach, loop on the pipe.

    Protocol (master -> worker): ``("iter", i, want_ll, refresh)`` runs
    iteration ``i`` over every owned group and answers
    ``("done", [ChunkResult...])`` — with ``refresh`` the worker first
    copies the shared ``model/*`` buffers into its owned replicas (the
    overlap-mode broadcast, performed in parallel across workers), and
    with ``want_ll`` each result carries its chunk's document-side
    likelihood terms; ``("stats",)`` answers ``("stats", description)``
    with the worker's kernel arena, the groups it serves and the applied
    CPU; ``("stop",)`` exits.  Any exception answers
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
        # One kernel arena for every owned group: the groups run one
        # after another, so no buffer is live across groups.
        workspace = Workspace(plan.compute_dtype)
        delta = plan.mode == "delta"
        prereduce = not delta and plan.sync_mode in ("prereduce", "overlap")
        delta_phi = delta_totals = None
        accum_phi = accum_totals = None
        model_phi = model_totals = None
        if delta or plan.sync_mode == "overlap":
            # delta: the one snapshot every chunk samples against;
            # overlap: the broadcast buffer a refresh copies from.
            model_phi = arena.view("model/phi")
            model_totals = arena.view("model/totals")
        if delta:
            delta_phi = arena.view(f"wdelta{plan.worker_index}/phi")
            delta_totals = arena.view(f"wdelta{plan.worker_index}/totals")
        if prereduce:
            accum_phi = arena.view(f"wacc{plan.worker_index}/phi")
            accum_totals = arena.view(f"wacc{plan.worker_index}/totals")
        groups = []
        for group_idx, metas in plan.groups:
            if delta:
                phi, totals = model_phi, model_totals
            else:
                phi = arena.view(f"rep{group_idx}/phi")
                totals = arena.view(f"rep{group_idx}/totals")
            chunks = [
                _LocalChunk(m, arena, plan.num_topics, plan.compress)
                for m in metas
            ]
            groups.append((phi, totals, chunks))
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "stop":
                break
            if cmd == "stats":
                conn.send((
                    "stats",
                    {
                        "groups": [g for g, _ in plan.groups],
                        "affinity": applied_cpu,
                        **workspace.describe(),
                    },
                ))
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
                for phi, totals, _ in groups:
                    phi[...] = model_phi
                    totals[...] = model_totals
            if delta:
                delta_phi[...] = 0
                delta_totals[...] = 0
            if prereduce:
                accum_phi[...] = 0
                accum_totals[...] = 0
            results = []
            for phi, totals, chunks in groups:
                for lc in chunks:
                    faults.crash_if(
                        "worker_crash", phase="sample", iteration=iteration,
                        chunk=lc.cs.chunk.spec.chunk_id, worker=plan.worker_index,
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
