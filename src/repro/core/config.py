"""Trainer configuration.

Hyper-parameters follow the paper: ``alpha = 50 / K`` and ``beta = 0.01``
(Section 2.1 / Section 7, matching WarpLDA [10] and SaberLDA [20]).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.parallel.pool import normalize_affinity


@dataclass(frozen=True)
class TrainerConfig:
    """Configuration of a CuLDA_CGS training run.

    Attributes
    ----------
    num_topics:
        ``K``, the number of topics to infer (paper: 1k-10k at scale).
    alpha / beta:
        Dirichlet hyper-parameters; ``None`` selects the paper defaults
        ``50/K`` and ``0.01``.
    num_gpus:
        ``G``, devices used by the parallelization scheme (Section 5).
    chunks_per_gpu:
        ``M``; ``C = M * G`` chunks total.  ``M = 1`` keeps chunks resident
        (WorkSchedule1); ``M > 1`` streams chunks through the device
        (WorkSchedule2) with transfer/compute overlap.
    compress:
        Enable the 16-bit data compression of Section 6.1.3.
    share_p2_tree:
        Share the p2(k)/p*(k) index tree across the samplers of a thread
        block (Section 6.1.2).  Disabling reproduces the "naive
        parallelization" the paper argues against (ablation bench).
    use_l1_for_indices:
        Route sparse-index loads through L1 (Section 6.1.2, citing [28]).
    overlap_transfers:
        Pipeline transfers with compute in WorkSchedule2 (Section 5.1).
    tokens_per_block:
        Upper bound on tokens per thread block (Figure 6 splitting).
    compute_dtype:
        Floating dtype of the sampling kernel: ``"float64"`` (default,
        bit-identical to the historical kernel under a fixed seed) or
        ``"float32"`` (half the bandwidth; a different but statistically
        equivalent chain — see docs/PERFORMANCE.md).
    execution:
        ``"serial"`` (default) runs the device loop in-process;
        ``"process"`` runs each simulated device's per-iteration work on
        real OS workers over shared memory (see :mod:`repro.parallel`).
        Both modes produce bit-identical draws for the same seed.
    num_workers:
        OS worker processes for ``execution="process"``; ``None`` uses
        ``min(num_gpus, os.cpu_count())``.  Ignored in serial mode.
    sync_mode:
        How process execution reconciles phi at the iteration barrier
        (requires ``execution="process"`` for the non-default values):

        - ``"barrier"`` (default) — the master differences every device
          replica against the reference model (O(G*K*V) merge);
        - ``"prereduce"`` — each worker pre-reduces its own devices' phi
          deltas into a per-worker shared accumulator before the
          barrier, cutting the master's merge to O(W*K*V);
        - ``"overlap"`` — pre-reduce plus the paper's Section 6.2 "phi
          first" trick at the process level: the master's merge result
          is broadcast *by the workers* at the next iteration's kick-off
          and the master's accounting/likelihood runs while they sample.

        All three modes produce bit-identical draws, models, likelihood
        trajectories and simulated clocks (goldens assert it); only host
        wall-clock moves.
    worker_affinity:
        Optional CPU ids to pin OS workers to (``os.sched_setaffinity``;
        worker ``w`` is pinned to ``worker_affinity[w % len]``).  Ignored
        in serial mode and on platforms without affinity support.
    recovery_retries:
        Process-mode crash recovery budget: how many times a crashed
        iteration may be replayed (pool respawn + shared-state rollback)
        before the run fails with
        :class:`~repro.parallel.engine.RecoveryFailed`.  ``0`` disables
        recovery (and the per-iteration snapshot copies).  Recovery is
        bit-identical — see docs/ROBUSTNESS.md.
    recovery_backoff:
        Base host-side backoff in seconds before respawn attempt ``k``
        (``recovery_backoff * 2**(k-1)``).  Wall-clock only; simulated
        clocks are unaffected.
    seed:
        RNG seed for the whole run (reproducible).
    """

    num_topics: int
    alpha: float | None = None
    beta: float | None = None
    num_gpus: int = 1
    chunks_per_gpu: int = 1
    compress: bool = True
    share_p2_tree: bool = True
    use_l1_for_indices: bool = True
    overlap_transfers: bool = True
    tokens_per_block: int = 1024
    compute_dtype: str = "float64"
    execution: str = "serial"
    num_workers: int | None = None
    sync_mode: str = "barrier"
    worker_affinity: tuple[int, ...] | None = None
    recovery_retries: int = 2
    recovery_backoff: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_topics < 2:
            raise ValueError(f"num_topics must be >= 2, got {self.num_topics}")
        if self.num_gpus < 1:
            raise ValueError(f"num_gpus must be >= 1, got {self.num_gpus}")
        if self.chunks_per_gpu < 1:
            raise ValueError(f"chunks_per_gpu must be >= 1, got {self.chunks_per_gpu}")
        if self.tokens_per_block < 32:
            raise ValueError("tokens_per_block must be >= 32 (one warp)")
        if self.alpha is not None and self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.beta is not None and self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.compute_dtype not in ("float32", "float64"):
            raise ValueError(
                f"compute_dtype must be 'float32' or 'float64', "
                f"got {self.compute_dtype!r}"
            )
        if self.execution not in ("serial", "process"):
            raise ValueError(
                f"execution must be 'serial' or 'process', "
                f"got {self.execution!r}"
            )
        if self.num_workers is not None and self.num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1 (or None), got {self.num_workers}"
            )
        if self.sync_mode not in ("barrier", "prereduce", "overlap"):
            raise ValueError(
                f"sync_mode must be 'barrier', 'prereduce' or 'overlap', "
                f"got {self.sync_mode!r}"
            )
        if self.sync_mode != "barrier" and self.execution != "process":
            raise ValueError(
                f"sync_mode={self.sync_mode!r} requires execution='process' "
                f"(serial execution has no workers to overlap with)"
            )
        if self.recovery_retries < 0:
            raise ValueError(
                f"recovery_retries must be >= 0, got {self.recovery_retries}"
            )
        if self.recovery_backoff < 0:
            raise ValueError(
                f"recovery_backoff must be >= 0, got {self.recovery_backoff}"
            )
        if self.worker_affinity is not None:
            try:
                affinity = normalize_affinity(self.worker_affinity)
            except ValueError as exc:
                raise ValueError(f"worker_affinity: {exc}") from None
            if affinity is None:
                raise ValueError(
                    "worker_affinity must be a non-empty sequence of "
                    "CPU ids, or None"
                )
            object.__setattr__(self, "worker_affinity", affinity)

    @property
    def effective_alpha(self) -> float:
        """Paper default: alpha = 50 / K."""
        return self.alpha if self.alpha is not None else 50.0 / self.num_topics

    @property
    def effective_beta(self) -> float:
        """Paper default: beta = 0.01."""
        return self.beta if self.beta is not None else 0.01

    @property
    def num_chunks(self) -> int:
        """``C = M * G`` (Section 5.1)."""
        return self.num_gpus * self.chunks_per_gpu
