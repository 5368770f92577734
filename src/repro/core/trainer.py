"""CuLdaTrainer: the end-to-end training loop (Figure 3).

Ties together the corpus substrate, the simulated devices, the sampling
and update kernels, the Algorithm 1 schedules and the Figure 4 phi
synchronization.  Produces per-iteration records with the two metrics the
paper reports: **tokens/sec** (Eq. 2, against *simulated* time) and
**log-likelihood per token** (Figure 8).

Typical use::

    from repro import CuLdaTrainer, TrainerConfig
    from repro.corpus.synthetic import small_spec, generate_synthetic_corpus
    from repro.gpusim import VOLTA_PLATFORM

    corpus = generate_synthetic_corpus(small_spec(), seed=0)
    trainer = CuLdaTrainer(corpus, TrainerConfig(num_topics=64),
                           platform=VOLTA_PLATFORM)
    history = trainer.train(num_iterations=20)
    print(history[-1].tokens_per_sec, history[-1].log_likelihood_per_token)
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.faults import FaultInjected
from repro.corpus.document import Corpus
from repro.corpus.encoding import topic_dtype_for
from repro.corpus.partition import assign_round_robin, partition_by_tokens
from repro.core.config import TrainerConfig
from repro.core.costs import phi_replica_bytes, theta_replica_bytes
from repro.core.likelihood import (
    ensure_finite,
    likelihood_due,
    log_likelihood_from_terms,
    log_likelihood_per_token,
)
from repro.core.model import LdaState
from repro.core.rng import RngPool
from repro.core.scheduler import (
    DeviceState,
    replay_parallel_accounting,
    run_iteration,
)
from repro.core.sync import simulate_phi_sync, synchronize, synchronize_prereduced
from repro.core.updates import verify_phi_consistency
from repro.gpusim.device import SimulatedGPU
from repro.gpusim.platform import Platform, VOLTA_PLATFORM
from repro.gpusim.spec import DeviceSpec
from repro.gpusim.stream import barrier
from repro.perf import Workspace


@dataclass(frozen=True)
class IterationRecord:
    """Metrics of one completed iteration."""

    iteration: int
    sim_seconds: float  # simulated duration of this iteration
    cumulative_seconds: float  # simulated time since training start
    tokens_per_sec: float  # Eq. 2 for this iteration
    log_likelihood_per_token: float | None
    mean_kd: float  # average theta-row density (sparsity tracker)
    p1_fraction: float  # share of draws taking the sparse bucket
    changed_fraction: float  # share of tokens whose topic changed


class CuLdaTrainer:
    """Multi-GPU (simulated) CuLDA_CGS trainer.

    Parameters
    ----------
    corpus:
        The corpus to train on.
    config:
        Topics, hyper-parameters, G, M and the Section 6 optimization
        switches.
    platform:
        A Table 2 platform; its GPU spec is instantiated ``config.num_gpus``
        times.  Pass ``device_spec`` instead to use a bare GPU spec.
    validate_every:
        Run the (expensive) invariant checks every N iterations; 0 off.
    """

    DESCRIPTION = "CuLDA_CGS: multi-GPU sparsity-aware CGS (the paper's system)"

    def __init__(
        self,
        corpus: Corpus,
        config: TrainerConfig,
        platform: Platform | None = None,
        device_spec: DeviceSpec | None = None,
        validate_every: int = 0,
    ):
        if platform is not None and device_spec is not None:
            raise ValueError("pass either platform or device_spec, not both")
        if platform is None and device_spec is None:
            platform = VOLTA_PLATFORM
        spec = device_spec if device_spec is not None else platform.gpu
        if platform is not None and config.num_gpus > platform.num_gpus:
            raise ValueError(
                f"platform {platform.name} has {platform.num_gpus} GPUs, "
                f"config requests {config.num_gpus}"
            )
        self.corpus = corpus
        self.config = config
        self.spec = spec
        self.pool = RngPool(config.seed)
        self.validate_every = validate_every

        chunk_specs = partition_by_tokens(corpus, config.num_chunks)
        self.state = LdaState.initialize(corpus, config, chunk_specs)
        per_gpu = assign_round_robin(chunk_specs, config.num_gpus)

        # One kernel arena for every device: the devices of one process
        # run one after another, so no buffer is live across devices.
        workspace = Workspace(config.compute_dtype)
        self.devices: list[DeviceState] = []
        for g in range(config.num_gpus):
            gpu = SimulatedGPU(g, spec)
            dev = DeviceState(
                gpu=gpu,
                phi=self.state.phi.copy(),
                totals=self.state.topic_totals.copy(),
                chunk_ids=[c.chunk_id for c in per_gpu[g]],
                workspace=workspace,
            )
            self.devices.append(dev)
        self._allocate_device_memory()
        self._initial_transfers()
        self.history: list[IterationRecord] = []
        #: per-iteration IterationOutcomes, consumed by repro.analysis.replay
        self.outcomes: list = []
        self._iterations_done = 0
        #: lazy ProcessEngine for config.execution == "process"
        self._engine = None
        #: crash-recovery / merge-retry events; shared with the engine so
        #: the trail survives engine rebuilds (see :attr:`recovery_events`).
        self._recovery_log: list[dict] = []

    # -- setup ----------------------------------------------------------------

    def _allocate_device_memory(self) -> None:
        """Register phi replicas + chunk/staging buffers; enforce capacity.

        M=1: every chunk resident.  M>1: two staging slots sized for the
        largest chunk (the Section 5.1 requirement for overlap), or one
        slot when overlap is disabled.
        """
        cfg = self.config
        phi_bytes = phi_replica_bytes(cfg.num_topics, self.corpus.num_words, cfg.compress)
        tdtype = topic_dtype_for(cfg.num_topics, cfg.compress)
        for dev in self.devices:
            dev.gpu.alloc("phi_replica", phi_bytes)
            if cfg.chunks_per_gpu == 1:
                for cid in dev.chunk_ids:
                    cs = self.state.chunks[cid]
                    nbytes = cs.chunk.nbytes(tdtype) + theta_replica_bytes(
                        cs.chunk.num_tokens, cs.chunk.num_local_docs, cfg.compress
                    )
                    dev.gpu.alloc(f"chunk[{cid}]", nbytes)
            else:
                biggest = max(
                    self.state.chunks[cid].chunk.nbytes(tdtype)
                    + theta_replica_bytes(
                        self.state.chunks[cid].chunk.num_tokens,
                        self.state.chunks[cid].chunk.num_local_docs,
                        cfg.compress,
                    )
                    for cid in dev.chunk_ids
                )
                slots = 2 if cfg.overlap_transfers else 1
                for s in range(slots):
                    dev.gpu.alloc(f"staging[{s}]", biggest)

    def _initial_transfers(self) -> None:
        """Algorithm 1 lines 7-9: ship resident data to the devices."""
        cfg = self.config
        phi_bytes = phi_replica_bytes(cfg.num_topics, self.corpus.num_words, cfg.compress)
        tdtype = topic_dtype_for(cfg.num_topics, cfg.compress)
        for dev in self.devices:
            dev.gpu.h2d("transfer", phi_bytes)
            if cfg.chunks_per_gpu == 1:
                for cid in dev.chunk_ids:
                    dev.gpu.h2d("transfer", self.state.chunks[cid].chunk.nbytes(tdtype))
        barrier([d.gpu.timeline for d in self.devices])

    # -- parallel execution ---------------------------------------------------

    def _ensure_engine(self):
        """Build/start the process engine and point the device replicas at
        its shared-memory views (values preserved)."""
        if self._engine is None:
            from repro.parallel import ProcessEngine

            self._engine = ProcessEngine(
                chunks={
                    cs.chunk.spec.chunk_id: cs for cs in self.state.chunks
                },
                groups=[list(dev.chunk_ids) for dev in self.devices],
                replicas=[(dev.phi, dev.totals) for dev in self.devices],
                num_topics=self.config.num_topics,
                alpha=self.config.effective_alpha,
                beta=self.config.effective_beta,
                compress=self.config.compress,
                compute_dtype=self.config.compute_dtype,
                seed=self.config.seed,
                num_workers=self.config.num_workers,
                sync_mode=self.config.sync_mode,
                worker_affinity=self.config.worker_affinity,
                recovery_retries=self.config.recovery_retries,
                recovery_backoff=self.config.recovery_backoff,
                recovery_log=self._recovery_log,
            )
            self._engine.start()
            for g, dev in enumerate(self.devices):
                dev.phi = self._engine.phi(g)
                dev.totals = self._engine.totals(g)
        return self._engine

    def close(self) -> None:
        """Shut down process-mode workers and shared memory (if any).

        The trainer stays fully usable afterwards: state is copied back
        to private arrays, and a later ``train`` in process mode builds a
        fresh engine from the current state.  No-op in serial mode.

        If an exception unwound out of an overlapped ``train`` while the
        next iteration was in flight, that iteration is drained and its
        pre-reduced deltas merged first, so the copied-back model is
        internally consistent (phi == sum of assignments) rather than a
        torn snapshot of buffers the workers were still writing.
        """
        if self._engine is not None:
            if self._engine.started:
                if self._engine.drain() is not None:
                    # Separate frame: its replica/accumulator views must
                    # be dead before engine.close() unmaps the arena.
                    self._merge_pending_sync()
                for dev in self.devices:
                    dev.phi = np.array(dev.phi)
                    dev.totals = np.array(dev.totals)
            self._engine.close()
            self._engine = None

    def _merge_pending_sync(self) -> None:
        """Fold a drained in-flight iteration into the model on close.

        The interrupted iteration's sampling is in the shared topics
        already; completing its phi merge keeps token conservation (it
        is simply the last, unrecorded iteration of the interrupted
        train).  Barrier mode has no pre-reduce accumulators — its
        updates live in the replicas, so difference them instead.
        """
        device_phis = [d.phi for d in self.devices]
        device_totals = [d.totals for d in self.devices]
        if self.config.sync_mode == "barrier":
            phi_new, totals_new = synchronize(
                self.state.phi, device_phis, device_totals
            )
        else:
            phi_new, totals_new = synchronize_prereduced(
                self.state.phi,
                self.state.topic_totals,
                self._engine.worker_accumulators(),
                device_phis,
                device_totals,
            )
        self.state.phi[...] = phi_new
        self.state.topic_totals[...] = totals_new

    def __enter__(self) -> CuLdaTrainer:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- robustness ------------------------------------------------------------

    @property
    def recovery_events(self) -> list[dict]:
        """Crash-recovery / merge-retry events recorded so far.

        One dict per incident (``iteration``, ``attempt``, ``error``,
        ``backoff_s``); empty for an undisturbed run.  The
        :class:`~repro.api.callbacks.Checkpointer` watches this to
        autosave after a recovery.
        """
        return self._recovery_log

    def _sync_with_retry(self, fn, *args, **kwargs):
        """Run a phi sync, retrying injected transient merge failures.

        ``merge_fail`` raises *before* any mutation or simulated-clock
        charge, so the retry replays the sync bit-identically.  Budget
        and backoff are the crash-recovery knobs.
        """
        attempt = 0
        while True:
            try:
                return fn(*args, **kwargs)
            except FaultInjected as exc:
                attempt += 1
                if attempt > self.config.recovery_retries:
                    raise
                backoff = self.config.recovery_backoff * (2 ** (attempt - 1))
                self._recovery_log.append(
                    {
                        "iteration": self._iterations_done,
                        "attempt": attempt,
                        "error": str(exc),
                        "backoff_s": backoff,
                    }
                )
                if backoff:
                    time.sleep(backoff)

    def resume_state(self) -> dict:
        """Progress counters a resumable checkpoint must carry."""
        return {
            "iterations_done": self._iterations_done,
            "sim_time": max(d.gpu.sync() for d in self.devices),
        }

    def restore(self, state: LdaState, run: dict | None = None) -> None:
        """Adopt checkpointed state; continue bit-identically from it.

        ``state`` must come from a checkpoint of a run with this
        trainer's configuration (same corpus, partition and seed — the
        RNG streams are keyed by ``(seed, iteration, chunk)``, so only
        the iteration counter needs restoring for the draws to line up).
        ``run`` optionally carries the v2 checkpoint's progress counters
        (``iterations_done``, ``sim_time``); without it the trainer
        resumes at iteration 0 of the given state.
        """
        if state.num_topics != self.config.num_topics:
            raise ValueError(
                f"checkpoint has {state.num_topics} topics, config "
                f"expects {self.config.num_topics}"
            )
        if len(state.chunks) != len(self.state.chunks):
            raise ValueError(
                f"checkpoint has {len(state.chunks)} chunks, this trainer "
                f"partitioned {len(self.state.chunks)} — same corpus and "
                f"num_gpus*chunks_per_gpu required"
            )
        self.close()
        self.state = state
        for dev in self.devices:
            dev.phi = state.phi.copy()
            dev.totals = state.topic_totals.copy()
        run = run or {}
        self._iterations_done = int(run.get("iterations_done", 0))
        sim_time = float(run.get("sim_time", 0.0))
        # Construction already charged alloc + initial transfers; a
        # checkpointed clock can only be at or past that point.
        for dev in self.devices:
            dev.gpu.timeline.advance_to(sim_time)
        self.history = []
        self.outcomes = []

    # -- training -------------------------------------------------------------

    def train(
        self,
        num_iterations: int,
        compute_likelihood_every: int = 1,
        callbacks=(),
    ) -> list[IterationRecord]:
        """Run ``num_iterations`` Gibbs iterations; returns their records.

        ``callbacks`` takes :class:`repro.api.callbacks.Callback`
        instances: they decide the likelihood cadence (superseding
        ``compute_likelihood_every`` when a cadence callback is present)
        and may stop training early from ``on_iteration_end``.  The
        full-featured loop (``on_train_begin``/``end`` hooks, a
        :class:`~repro.api.protocol.TrainResult`) is
        ``repro.create_trainer("culda", ...).fit(...)``.
        """
        if num_iterations < 0:
            raise ValueError("num_iterations must be non-negative")
        if compute_likelihood_every < 0:
            raise ValueError("compute_likelihood_every must be non-negative")
        callbacks = list(callbacks)
        if callbacks:
            from repro.api.callbacks import likelihood_needed
        total_tokens = self.state.num_tokens
        engine = (
            self._ensure_engine() if self.config.execution == "process" else None
        )
        sync_mode = self.config.sync_mode if engine is not None else "barrier"
        prereduced = sync_mode in ("prereduce", "overlap")
        # The overlap pipeline dispatches iteration i+1 before charging
        # and scoring iteration i; callbacks may stop training between
        # iterations, so pipelining is only engaged without them (the
        # pre-reduced merge and worker-side likelihood still apply).
        pipeline = sync_mode == "overlap" and not callbacks
        phi_bytes = phi_replica_bytes(
            self.config.num_topics, self.corpus.num_words, self.config.compress
        )

        def needs_ll(it: int) -> bool:
            if callbacks:
                return likelihood_needed(callbacks, it, compute_likelihood_every)
            return likelihood_due(it, compute_likelihood_every)

        inflight: int | None = None
        for n in range(num_iterations):
            it = self._iterations_done
            t0 = max(d.gpu.sync() for d in self.devices)
            need_ll = needs_ll(it)
            results = None
            if engine is not None:
                if inflight is None:
                    engine.dispatch_iteration(it, want_ll=need_ll)
                results = engine.collect_iteration()
                inflight = None
            validate_due = bool(
                self.validate_every and (it + 1) % self.validate_every == 0
            )
            if not prereduced:
                if engine is None:
                    outcome = run_iteration(
                        self.devices, self.state, self.config, it, self.pool
                    )
                else:
                    outcome = replay_parallel_accounting(
                        self.devices, self.state, self.config, it, results
                    )
                phi_new, totals_new = self._sync_with_retry(
                    synchronize,
                    self.state.phi,
                    [d.phi for d in self.devices],
                    [d.totals for d in self.devices],
                    gpus=[d.gpu for d in self.devices],
                    phi_bytes=phi_bytes,
                )
                self.state.phi[...] = phi_new
                self.state.topic_totals[...] = totals_new
            else:
                # Pre-reduced functional merge first — O(W*K*V), and it
                # unblocks the next iteration's kick-off...
                phi_new, totals_new = self._sync_with_retry(
                    synchronize_prereduced,
                    self.state.phi,
                    self.state.topic_totals,
                    engine.worker_accumulators(),
                )
                self.state.phi[...] = phi_new
                self.state.topic_totals[...] = totals_new
                if pipeline and n + 1 < num_iterations and not validate_due:
                    # ...the paper's "phi first" at the process level:
                    # workers broadcast the reconciled model into their
                    # own replicas and start sampling iteration i+1 while
                    # the master replays clocks and scores likelihood.
                    engine.model_phi()[...] = phi_new
                    engine.model_totals()[...] = totals_new
                    engine.dispatch_iteration(
                        it + 1,
                        want_ll=needs_ll(it + 1),
                        refresh_replicas=True,
                    )
                    inflight = it + 1
                else:
                    # Pipeline drained (last iteration, validation due,
                    # callbacks present, or plain prereduce): the master
                    # broadcasts while the workers idle.
                    for dev in self.devices:
                        dev.phi[...] = phi_new
                        dev.totals[...] = totals_new
                outcome = replay_parallel_accounting(
                    self.devices, self.state, self.config, it, results
                )
                # Simulated Figure 4 sync charge, unchanged in every mode.
                gpus = [d.gpu for d in self.devices]
                if len(gpus) > 1:
                    simulate_phi_sync(gpus, phi_bytes)
            self.outcomes.append(outcome)
            t1 = barrier([d.gpu.timeline for d in self.devices])

            if validate_due:
                self.state.validate()
                for d in self.devices:
                    verify_phi_consistency(d.phi, d.totals, total_tokens)

            if need_ll:
                if engine is not None:
                    ll = self._assemble_likelihood(results) / total_tokens
                else:
                    ll = log_likelihood_per_token(self.state)
                ll = ensure_finite(ll, iteration=it)
            else:
                ll = None
            dur = t1 - t0
            self.history.append(
                IterationRecord(
                    iteration=it,
                    sim_seconds=dur,
                    cumulative_seconds=t1,
                    tokens_per_sec=total_tokens / dur if dur > 0 else 0.0,
                    log_likelihood_per_token=ll,
                    mean_kd=outcome.sum_kd / total_tokens if total_tokens else 0.0,
                    p1_fraction=(
                        outcome.num_p1_draws / total_tokens if total_tokens else 0.0
                    ),
                    changed_fraction=(
                        outcome.changed_tokens / total_tokens if total_tokens else 0.0
                    ),
                )
            )
            self._iterations_done += 1
            if callbacks:
                # Every callback observes every record (no short-circuit).
                stops = [cb.on_iteration_end(self, self.history[-1]) for cb in callbacks]
                if any(stops):
                    break
        return self.history

    def _assemble_likelihood(self, results) -> float:
        """Joint log-likelihood from worker-evaluated doc terms.

        Process modes never scan theta on the master: the word side comes
        from the reconciled master model, the document side is replayed
        from the per-chunk ``(plus, minus)`` terms the workers computed
        from their fresh theta before the barrier — in chunk order, so
        the float accumulation is **bit-identical** to the serial
        :func:`~repro.core.likelihood.log_likelihood`.
        """
        terms = []
        for cs in self.state.chunks:
            r = results[cs.chunk.spec.chunk_id]
            if r.ll_terms is None:  # pragma: no cover - dispatch mismatch
                raise RuntimeError(
                    "likelihood requested but the workers were not asked "
                    "for doc terms this iteration"
                )
            terms.append(r.ll_terms)
        return log_likelihood_from_terms(self.state, terms)

    # -- reporting --------------------------------------------------------------

    def describe(self) -> dict:
        """Identity and effective configuration (unified API contract)."""
        return {
            "description": self.DESCRIPTION,
            "num_topics": self.config.num_topics,
            "num_gpus": self.config.num_gpus,
            "chunks_per_gpu": self.config.chunks_per_gpu,
            "alpha": self.config.effective_alpha,
            "beta": self.config.effective_beta,
            "compute_dtype": self.config.compute_dtype,
            "execution": self.config.execution,
            "num_workers": (
                self._engine.num_workers if self._engine is not None
                else self.config.num_workers
            ),
            "sync_mode": self.config.sync_mode,
            "worker_affinity": self.config.worker_affinity,
            "seed": self.config.seed,
        }

    def workspace_stats(self) -> list[dict]:
        """Kernel-arena occupancy, one entry per arena (see
        docs/PERFORMANCE.md).

        Each entry lists the device ``groups`` its arena serves.  Serial
        execution runs every device in one arena, so it reports one
        entry.  In process mode each worker process holds one arena for
        the devices it owns; the stats are gathered over the control
        pipes — only while the engine is running; after :meth:`close`
        this returns ``[]`` (the master-side pool never ran a kernel in
        process mode, so reporting it would present zero counters as the
        run's occupancy).
        """
        if self._engine is not None and self._engine.started:
            return self._engine.workspace_stats()
        if self.config.execution == "process":
            return []
        return [
            {
                "groups": list(range(len(self.devices))),
                **self.devices[0].workspace.describe(),
            }
        ]

    def kernel_breakdown(self) -> dict[str, float]:
        """Aggregated share of simulated time per kernel (Table 5 rows).

        Transfers and sync are included under their own keys; the paper's
        table normalises over the three kernels only, which
        :func:`repro.analysis.breakdown.table5_fractions` does.
        """
        merged: dict[str, float] = {}
        for dev in self.devices:
            for name, secs in dev.gpu.ledger.seconds.items():
                merged[name] = merged.get(name, 0.0) + secs
        return merged

    def average_tokens_per_sec(self, first_n: int | None = None) -> float:
        """Mean per-iteration throughput (Table 4 aggregates first 100)."""
        records = self.history if first_n is None else self.history[:first_n]
        if not records:
            raise ValueError("no iterations recorded yet")
        return float(np.mean([r.tokens_per_sec for r in records]))
