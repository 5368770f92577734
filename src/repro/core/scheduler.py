"""One chunk pass and the Algorithm 1 schedules that charge its clock.

Within one chunk the kernel order is: sampling, update-phi, update-theta
— phi first so the iteration-end phi synchronization can start while
theta updates still run (Section 6.2, last paragraph).
:func:`chunk_pass` is that sequence, and every executor runs it: the
serial scheduler here, the OS workers of :mod:`repro.parallel.worker`
and both LDA* executors.  It touches only arrays.  The simulated clock
is charged afterwards from the returned chunk results by
:func:`replay_parallel_accounting`, the one accounting walk for serial
and process execution alike.

``C = M * G`` chunks are assigned round-robin (chunk ``i`` to GPU
``i % G``, smaller ids first).  The accounting follows one of two
schedules:

- **WorkSchedule1** (``M = 1``): every GPU holds its chunk (and theta
  replica) resident for the whole run; data moves host<->device only at
  the start and end of training.
- **WorkSchedule2** (``M > 1``): chunks stream through the device each
  iteration.  With ``overlap_transfers`` the schedule double-buffers two
  chunk slots and pipelines chunk ``m+1``'s H2D copy with chunk ``m``'s
  compute on separate streams — the paper's stream-interface overlap.
  Device memory must hold **two** chunks in this mode (Section 5.1), and
  the allocator enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import TrainerConfig
from repro.core.costs import (
    int_bytes,
    sampling_cost,
    theta_replica_bytes,
    update_phi_cost,
    update_theta_cost,
)
from repro.core.model import ChunkState, LdaState
from repro.core.rng import RngPool
from repro.core.sampler import sample_chunk
from repro.core.updates import apply_phi_update
from repro.gpusim.cache import gpu_l1_index_factor
from repro.gpusim.clock import KernelCost
from repro.gpusim.device import SimulatedGPU
from repro.gpusim.spec import DeviceSpec
from repro.gpusim.stream import Stream, barrier
from repro.perf import Workspace


@dataclass
class DeviceState:
    """One GPU's replica and its round-robin chunk assignment.

    Only serial execution keeps the replica on the master (``phi`` and
    ``totals`` are ``None`` under process execution, whose OS workers
    hold their own).  ``workspace`` is the reusable kernel arena the device's chunk passes
    draw every large temporary from, so after the first pass the steady
    state allocates (almost) nothing — the NumPy analogue of static
    device buffers.  It belongs to the executor process, not the device:
    every device of one process shares it, because they run one after
    another.
    """

    gpu: SimulatedGPU
    phi: np.ndarray | None  # int32[K, V] replica
    totals: np.ndarray | None  # int64[K] replica
    chunk_ids: list[int] = field(default_factory=list)
    workspace: Workspace | None = None


@dataclass(frozen=True)
class ChunkResult:
    """What one chunk pass reports: its statistics and kernel-cost inputs.

    The functional trajectory of a run depends only on (corpus, config,
    seed) — never on the device spec — so these records are all the
    accounting needs: the master prices them on its simulated devices,
    and :mod:`repro.analysis.replay` re-prices them on a *different*
    platform without re-running the sampler (the Figure 7 / Table 4
    benches).
    """

    chunk_id: int
    stats: object  # SamplingStats (kept loose to avoid import cycle)
    changed: int
    theta_nnz_pre: int  # nnz when the sampling kernel ran (L1 model input)
    theta_nnz: int  # nnz after update-theta (its compaction cost)
    num_local_docs: int
    #: document-side likelihood terms of this chunk's fresh theta —
    #: ``(plus, minus)`` per :func:`repro.core.likelihood.chunk_doc_terms`
    #: — filled in by a process worker when the master requested
    #: likelihood this iteration, else ``None``.
    ll_terms: tuple[float, float] | None = None


@dataclass
class IterationOutcome:
    """Aggregated statistics of one training iteration."""

    iteration: int
    sum_kd: int = 0
    num_p1_draws: int = 0
    num_p2_draws: int = 0
    changed_tokens: int = 0
    chunk_records: list[ChunkResult] = field(default_factory=list)


def chunk_pass(
    cs: ChunkState,
    phi: np.ndarray,
    totals: np.ndarray,
    iteration: int,
    pool: RngPool,
    num_topics: int,
    alpha: float,
    beta: float,
    compress: bool,
    workspace: Workspace | None = None,
    accum_phi: np.ndarray | None = None,
    accum_totals: np.ndarray | None = None,
) -> ChunkResult:
    """Sampling + update-phi + update-theta for one chunk (no clock).

    Samples ``cs`` against ``phi``/``totals`` on the chunk's
    ``(seed, iteration, chunk_id)`` stream, applies the count updates,
    writes the new topics into ``cs.topics`` in place (so a shared-memory
    view publishes them) and rebuilds ``cs.theta``.  The count updates
    land on ``phi``/``totals``; ``accum_phi``/``accum_totals``
    additionally receive the same signed update (a process worker's
    pre-reduced delta).
    """
    chunk_id = cs.chunk.spec.chunk_id
    theta_nnz_pre = cs.theta.nnz
    result = sample_chunk(
        cs.chunk, cs.topics, cs.theta, phi, totals,
        alpha=alpha, beta=beta, rng=pool.chunk_stream(iteration, chunk_id),
        workspace=workspace,
    )
    changed = apply_phi_update(
        phi, totals, cs.chunk.token_words, cs.topics, result.new_topics,
        accum_phi=accum_phi, accum_totals=accum_totals,
    )
    np.copyto(cs.topics, result.new_topics, casting="same_kind")
    cs.rebuild_theta(num_topics, compress)
    return ChunkResult(
        chunk_id=chunk_id,
        stats=result.stats,
        changed=changed,
        theta_nnz_pre=theta_nnz_pre,
        theta_nnz=cs.theta.nnz,
        num_local_docs=cs.chunk.num_local_docs,
    )


def chunk_kernel_costs(
    r: ChunkResult, config: TrainerConfig, spec: DeviceSpec
) -> tuple[tuple[str, KernelCost], ...]:
    """The ``(kernel, cost)`` triple of one chunk pass on ``spec``.

    The single source of the three Table-1-derived kernel costs: the
    device clock (:func:`charge_chunk_costs`) and the cross-platform
    replay both price a chunk through it.
    """
    if config.use_l1_for_indices:
        index_ws = r.theta_nnz_pre * int_bytes(config.compress) / spec.num_sms
        l1f = gpu_l1_index_factor(spec, index_ws)
    else:
        l1f = 1.0
    return (
        ("sampling",
         sampling_cost(r.stats, config.compress, config.share_p2_tree, l1f)),
        ("update_phi", update_phi_cost(r.stats.num_tokens, config.compress)),
        ("update_theta",
         update_theta_cost(
             r.stats.num_tokens, r.num_local_docs, config.num_topics,
             r.theta_nnz, config.compress,
         )),
    )


def charge_chunk_costs(
    dev: DeviceState,
    config: TrainerConfig,
    r: ChunkResult,
    stream: Stream | None = None,
) -> None:
    """Charge one chunk pass's three kernel launches on the device clock.

    Pure accounting — touches only the simulated timeline, never the
    arrays.
    """
    for kernel, cost in chunk_kernel_costs(r, config, dev.gpu.spec):
        dev.gpu.launch(kernel, cost, stream)


def run_iteration(
    devices: list[DeviceState],
    state: LdaState,
    config: TrainerConfig,
    iteration: int,
    pool: RngPool,
) -> IterationOutcome:
    """One serial iteration: every device's chunk passes, then the clock.

    Each device's chunks run in schedule order against its own replica;
    the matching schedule's accounting is then charged from the results,
    exactly as the master charges a process iteration.
    """
    results = {}
    for dev in devices:
        for cid in dev.chunk_ids:
            results[cid] = chunk_pass(
                state.chunks[cid], dev.phi, dev.totals, iteration, pool,
                config.num_topics, config.effective_alpha,
                config.effective_beta, config.compress, dev.workspace,
            )
    return replay_parallel_accounting(devices, state, config, iteration, results)


def replay_parallel_accounting(
    devices: list[DeviceState],
    state: LdaState,
    config: TrainerConfig,
    iteration: int,
    results,
) -> IterationOutcome:
    """Charge one iteration's schedule on the simulated clocks.

    Walks Algorithm 1 over ``results`` (chunk id -> :class:`ChunkResult`):
    per device, in chunk order, the three kernel launches from the
    reported statistics, plus WorkSchedule2's per-chunk H2D of the chunk
    and its theta and D2H of the updated theta.  Serial execution calls
    it right after its chunk passes and process execution on the master
    with worker-reported results, so the two clocks are the same code.
    Pure in ``results``: it never reads the shared arrays, so it is safe
    to run while the workers already sample the next iteration.
    """
    outcome = IterationOutcome(iteration)
    streamed = config.chunks_per_gpu > 1
    for dev in devices:
        if streamed and config.overlap_transfers:
            streams = [dev.gpu.create_stream(), dev.gpu.create_stream()]
        else:
            streams = [dev.gpu.default_stream]
        for slot, cid in enumerate(dev.chunk_ids):
            r = results[cid]
            stream = streams[slot % len(streams)] if streamed else None
            if streamed:
                dev.gpu.h2d(
                    "transfer",
                    state.chunks[cid].chunk.nbytes()
                    + theta_replica_bytes(
                        r.theta_nnz_pre, r.num_local_docs, config.compress
                    ),
                    stream,
                )
            charge_chunk_costs(dev, config, r, stream)
            if streamed:
                dev.gpu.d2h(
                    "transfer",
                    theta_replica_bytes(
                        r.theta_nnz, r.num_local_docs, config.compress
                    ),
                    stream,
                )
            outcome.sum_kd += r.stats.sum_kd
            outcome.num_p1_draws += r.stats.num_p1_draws
            outcome.num_p2_draws += r.stats.num_p2_draws
            outcome.changed_tokens += r.changed
            outcome.chunk_records.append(r)
    barrier([d.gpu.timeline for d in devices])
    return outcome
