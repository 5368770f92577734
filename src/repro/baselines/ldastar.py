"""LDA*-style distributed baseline (Yu et al. [34]).

LDA* is the paper's distributed comparison point: CPU workers behind a
parameter server, connected by 10 Gb/s Ethernet.  The paper's argument
(Sections 3.2, 7.2) is that such systems are **network bound**: every
iteration the workers must push their model deltas to the parameter
server and pull the merged model back, and 10 GbE is two orders of
magnitude slower than on-node interconnects.

The simulation runs the *same functional CGS kernel* as the core system
partitioned over ``num_workers`` chunks (so convergence is genuine), and
charges per iteration:

- compute: the Table 1 roofline cost on each worker's CPU, with the
  cache-factor degradation of Section 3.2;
- network: sparse delta push + dense model pull through the parameter
  server's shared link — the serialisation point that caps scaling.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.config import TrainerConfig
from repro.core.costs import SamplingStats, int_bytes, sampling_cost, tree_depth_for
from repro.core.likelihood import (
    likelihood_due,
    log_likelihood_from_terms,
    log_likelihood_per_token,
)
from repro.core.model import LdaState
from repro.core.rng import RngPool
from repro.core.scheduler import chunk_pass
from repro.core.sync import sync_with_retry, synchronize_prereduced
from repro.core.trainer import IterationRecord, iteration_record
from repro.corpus.document import Corpus
from repro.corpus.partition import partition_by_tokens
from repro.gpusim.cache import cpu_cache_bandwidth_factor
from repro.gpusim.clock import cpu_kernel_time
from repro.gpusim.interconnect import ETHERNET_10G, Link
from repro.gpusim.platform import XEON_E5_2650_V3
from repro.gpusim.spec import CpuSpec
from repro.perf import Workspace


class LdaStarTrainer:
    """Parameter-server distributed LDA simulation.

    Parameters
    ----------
    num_workers:
        Machines in the cluster (the paper's PubMed comparison uses 20).
    network:
        The shared link to the parameter server (default 10 GbE).
    """

    DESCRIPTION = "LDA*-style distributed parameter-server baseline (10 GbE)"

    def __init__(
        self,
        corpus: Corpus,
        num_topics: int,
        num_workers: int = 20,
        cpu: CpuSpec = XEON_E5_2650_V3,
        network: Link = ETHERNET_10G,
        alpha: float | None = None,
        beta: float | None = None,
        seed: int = 0,
        execution: str = "serial",
        num_processes: int | None = None,
        sync_mode: str = "barrier",
        worker_affinity=None,
        recovery_retries: int = 2,
        recovery_backoff: float = 0.05,
    ):
        """``execution="process"`` runs the cluster workers' chunk passes
        on ``num_processes`` real OS workers over shared memory (see
        :mod:`repro.parallel`); draws are bit-identical to serial.

        ``sync_mode`` means what it means for culda: the process engine
        always pre-reduces (one delta pair per OS worker); ``"barrier"``
        (default) merges then dispatches, ``"overlap"`` pipelines the
        master's delta merge (the parameter-server push/pull) against
        the next iteration's sampling kick-off — same draws,
        likelihoods and simulated clocks, less host wall-clock.
        ``worker_affinity`` pins OS workers to the given CPU ids
        round-robin.  ``recovery_retries``/``recovery_backoff``
        bound process-mode crash recovery and, in both modes, the
        ``merge_fail`` retry of the delta merge (see docs/ROBUSTNESS.md).
        """
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.corpus = corpus
        self.num_workers = num_workers
        self.cpu = cpu
        self.network = network
        # Reuse the core chunked state: one chunk per worker.
        self.config = TrainerConfig(
            num_topics=num_topics,
            alpha=alpha,
            beta=beta,
            num_gpus=num_workers,  # worker count plays the role of G
            chunks_per_gpu=1,
            compress=False,  # workers use plain 32-bit data
            execution=execution,
            num_workers=num_processes,
            sync_mode=sync_mode,
            worker_affinity=worker_affinity,
            recovery_retries=recovery_retries,
            recovery_backoff=recovery_backoff,
            seed=seed,
        )
        specs = partition_by_tokens(corpus, num_workers)
        self.state = LdaState.initialize(corpus, self.config, specs)
        self.pool = RngPool(seed)
        self.history: list[IterationRecord] = []
        self._sim_time = 0.0
        self._iterations_done = 0
        # shared kernel arena for all simulated workers' chunk passes
        self._workspace = Workspace()
        if self.config.execution == "serial":
            #: the replica and int64 delta accumulator, reused across
            #: iterations as an OS worker reuses its own
            self._replica = (
                np.empty_like(self.state.phi),
                np.empty_like(self.state.topic_totals),
            )
            self._deltas = (
                np.zeros_like(self.state.phi, dtype=np.int64),
                np.zeros_like(self.state.topic_totals),
            )
        self._engine = None
        self._recovery_log: list[dict] = []

    def _worker_seconds(self, stats: SamplingStats) -> float:
        """Roofline time of one worker's chunk pass on its CPU."""
        working_set = (
            self.state.phi.nbytes
            + stats.sum_kd * 3 * int_bytes(False)
            + stats.num_tokens * 8
        )
        factor = cpu_cache_bandwidth_factor(self.cpu, working_set)
        cost = sampling_cost(stats, compress=False, share_p2_tree=False)
        return cpu_kernel_time(self.cpu, cost.scaled(1.0 / min(factor, 8.0)))

    def _network_seconds(self, changed_tokens: int) -> float:
        """PS sync: sparse delta pushes + dense model pulls, shared link.

        Every changed token contributes two (k, v, delta) triples; every
        worker also pulls the merged dense phi.  All of it serialises
        through the parameter server's link.
        """
        delta_bytes = changed_tokens * 2 * 12  # (int32 k, int32 v, int32 d)
        pull_bytes = self.num_workers * self.state.phi.nbytes
        return self.network.transfer_time(delta_bytes + pull_bytes)

    # -- parallel execution ---------------------------------------------------

    def _ensure_engine(self):
        """The engine culda builds, with one group per cluster worker:
        each samples against a replica refreshed from the published model
        (the parameter-server pull) and its updates land in its OS
        worker's delta accumulator (the push) — memory scales with OS
        workers, not cluster size."""
        if self._engine is None:
            from repro.parallel import ProcessEngine

            self._engine = ProcessEngine(
                chunks={
                    cs.chunk.spec.chunk_id: cs for cs in self.state.chunks
                },
                groups=[[w] for w in range(self.num_workers)],
                model=(self.state.phi, self.state.topic_totals),
                num_topics=self.config.num_topics,
                alpha=self.config.effective_alpha,
                beta=self.config.effective_beta,
                compress=self.config.compress,
                seed=self.config.seed,
                num_workers=self.config.num_workers,
                worker_affinity=self.config.worker_affinity,
                recovery_retries=self.config.recovery_retries,
                recovery_backoff=self.config.recovery_backoff,
                recovery_log=self._recovery_log,
            )
            self._engine.start()
        return self._engine

    def close(self) -> None:
        """Shut down process-mode workers and shared memory (if any).

        A pipelined iteration left in flight by an exception is drained
        and its delta pushes merged first, so the master model stays
        consistent with the copied-back assignments.
        """
        if self._engine is not None:
            if self._engine.started and self._engine.drain() is not None:
                # Separate frame: the delta views must be dead before
                # engine.close() unmaps the arena.
                self._merge(self._engine.worker_deltas())
            self._engine.close()
            self._engine = None

    def _merge(self, deltas) -> None:
        """The parameter-server merge: fold the ``(delta_phi,
        delta_totals)`` pushes into the master model — culda's
        pre-reduced merge, under the same ``merge_fail`` retry."""
        phi_new, totals_new = sync_with_retry(
            partial(
                synchronize_prereduced,
                self.state.phi, self.state.topic_totals, deltas,
            ),
            self.config, self._recovery_log, self._iterations_done,
        )
        self.state.phi[...] = phi_new
        self.state.topic_totals[...] = totals_new

    def __enter__(self) -> LdaStarTrainer:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- robustness ------------------------------------------------------------

    @property
    def recovery_events(self) -> list[dict]:
        """Crash-recovery events recorded so far (empty when undisturbed)."""
        return self._recovery_log

    def resume_state(self) -> dict:
        """Progress counters a resumable checkpoint must carry."""
        return {
            "iterations_done": self._iterations_done,
            "sim_time": self._sim_time,
        }

    def restore(self, state: LdaState, run: dict | None = None) -> None:
        """Adopt checkpointed state; continue bit-identically from it.

        Same contract as :meth:`repro.core.trainer.CuLdaTrainer.restore`:
        the checkpoint must come from a run with this trainer's corpus,
        worker count and seed.
        """
        if state.num_topics != self.config.num_topics:
            raise ValueError(
                f"checkpoint has {state.num_topics} topics, config "
                f"expects {self.config.num_topics}"
            )
        if len(state.chunks) != self.num_workers:
            raise ValueError(
                f"checkpoint has {len(state.chunks)} chunks, this trainer "
                f"simulates {self.num_workers} workers"
            )
        self.close()
        self.state = state
        run = run or {}
        self._iterations_done = int(run.get("iterations_done", 0))
        self._sim_time = float(run.get("sim_time", 0.0))
        self.history = []

    def _sample_workers_serial(self, it: int) -> tuple[list, int, int]:
        """All workers' chunk passes in-process, as one OS worker runs
        them: each worker's chunk samples against the replica refreshed
        from the iteration-start model (the pull), and its updates are
        summed into the delta accumulator (the push), merged at the end.
        """
        phi, totals = self._replica
        dphi, dtot = self._deltas
        dphi[...] = 0
        dtot[...] = 0
        results = []
        for cs in self.state.chunks:
            phi[...] = self.state.phi
            totals[...] = self.state.topic_totals
            results.append(chunk_pass(
                cs, phi, totals, it, self.pool, self.config.num_topics,
                self.config.effective_alpha, self.config.effective_beta,
                self.config.compress, self._workspace,
                accum_phi=dphi, accum_totals=dtot,
            ))
        self._merge([self._deltas])
        return self._fold_results(results)

    def _fold_results(self, results) -> tuple[list, int, int]:
        """Per-worker simulated seconds, changed tokens and sum-Kd of one
        iteration's chunk results, in worker order."""
        worker_times = [self._worker_seconds(r.stats) for r in results]
        changed_total = sum(r.changed for r in results)
        sum_kd = sum(r.stats.sum_kd for r in results)
        return worker_times, changed_total, sum_kd

    def _dispatch_process(self, engine, it: int, want_ll: bool) -> None:
        """The PS pull + kick-off: publish the merged model, start ``it``."""
        engine.publish_model(self.state.phi, self.state.topic_totals)
        engine.dispatch_iteration(it, want_ll=want_ll)

    def _assemble_likelihood(self, results) -> float:
        """Joint likelihood per token from worker-evaluated doc terms (see
        :func:`repro.core.likelihood.log_likelihood_from_terms`)."""
        terms = [results[w].ll_terms for w in range(self.num_workers)]
        if any(t is None for t in terms):  # pragma: no cover - mismatch
            raise RuntimeError(
                "likelihood requested but the workers were not asked "
                "for doc terms this iteration"
            )
        return log_likelihood_from_terms(self.state, terms) / self.state.num_tokens

    def train(
        self, num_iterations: int, compute_likelihood_every: int = 1
    ) -> list[IterationRecord]:
        """Run iterations on the simulated cluster clock.

        With ``sync_mode="overlap"`` (process execution) the next
        iteration's pull + kick-off happens immediately after the delta
        merge, so the master's likelihood assembly and record-keeping
        run while the OS workers already sample — the paper's "phi
        first" overlap applied to the parameter-server exchange.
        """
        if num_iterations < 0:
            raise ValueError("num_iterations must be non-negative")
        total_tokens = self.state.num_tokens
        process = self.config.execution == "process"
        pipeline = self.config.sync_mode == "overlap"
        engine = self._ensure_engine() if process else None

        def needs_ll(it: int) -> bool:
            return likelihood_due(it, compute_likelihood_every)

        inflight: int | None = None
        for n in range(num_iterations):
            it = self._iterations_done
            need_ll = needs_ll(it)
            if process:
                if inflight is None:
                    self._dispatch_process(engine, it, need_ll)
                results = engine.collect_iteration()
                inflight = None
                self._merge(engine.worker_deltas())
                worker_times, changed_total, sum_kd = self._fold_results(
                    [results[w] for w in range(self.num_workers)]
                )
                if pipeline and n + 1 < num_iterations:
                    self._dispatch_process(engine, it + 1, needs_ll(it + 1))
                    inflight = it + 1
                likelihood = partial(self._assemble_likelihood, results)
            else:
                worker_times, changed_total, sum_kd = (
                    self._sample_workers_serial(it)
                )
                likelihood = partial(log_likelihood_per_token, self.state)

            dur = max(worker_times) + self._network_seconds(changed_total)
            self._sim_time += dur
            self.history.append(
                iteration_record(
                    it, dur, self._sim_time, total_tokens,
                    likelihood=likelihood,
                    likelihood_every=compute_likelihood_every,
                    sum_kd=sum_kd,
                    changed_tokens=changed_total,
                )
            )
            self._iterations_done += 1
        return self.history

    def describe(self) -> dict:
        """Identity and effective configuration (unified API contract)."""
        return {
            "description": self.DESCRIPTION,
            "num_topics": self.config.num_topics,
            "num_workers": self.num_workers,
            "alpha": self.config.effective_alpha,
            "beta": self.config.effective_beta,
            "network": self.network.name,
            "execution": self.config.execution,
            "num_processes": self.config.num_workers,
            "sync_mode": self.config.sync_mode,
            "worker_affinity": self.config.worker_affinity,
        }

    @property
    def tree_depth(self) -> int:  # pragma: no cover - convenience
        return tree_depth_for(self.config.num_topics)
