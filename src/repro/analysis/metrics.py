"""Metric extraction from training histories (Eq. 2, Figures 7-9).

All functions operate on lists of
:class:`~repro.core.trainer.IterationRecord`, the common currency of the
core trainer and every baseline trainer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.trainer import IterationRecord


def throughput_series(history: list[IterationRecord]) -> np.ndarray:
    """Per-iteration tokens/sec — one Figure 7 curve."""
    if not history:
        raise ValueError("empty history")
    return np.array([r.tokens_per_sec for r in history], dtype=np.float64)


def convergence_series(
    history: list[IterationRecord],
) -> tuple[np.ndarray, np.ndarray]:
    """(simulated seconds, log-likelihood/token) — one Figure 8 curve.

    Iterations without a likelihood measurement are skipped.
    """
    pts = [
        (r.cumulative_seconds, r.log_likelihood_per_token)
        for r in history
        if r.log_likelihood_per_token is not None
    ]
    if not pts:
        raise ValueError("history has no likelihood measurements")
    t, ll = zip(*pts)
    return np.asarray(t, dtype=np.float64), np.asarray(ll, dtype=np.float64)


def warmup_ratio(history: list[IterationRecord], head: int = 5) -> float:
    """Steady-state / initial throughput ratio.

    Figure 7's shape: > 1 when the model needs iterations to sparsify
    (NYTimes), ~ 1 when it starts sparse (PubMed).
    """
    s = throughput_series(history)
    if s.shape[0] < 2 * head:
        raise ValueError(f"need at least {2*head} iterations")
    return float(s[-head:].mean() / s[:head].mean())


@dataclass(frozen=True)
class ScalingPoint:
    """One Figure 9(b) point: speedup at a GPU count."""

    num_gpus: int
    tokens_per_sec: float
    speedup: float
    efficiency: float  # speedup / num_gpus


def scaling_table(
    throughputs: dict[int, float],
) -> list[ScalingPoint]:
    """Normalise multi-GPU throughputs against the 1-GPU run (Figure 9b)."""
    if 1 not in throughputs:
        raise ValueError("scaling table needs a 1-GPU measurement")
    base = throughputs[1]
    if base <= 0:
        raise ValueError("baseline throughput must be positive")
    return [
        ScalingPoint(
            num_gpus=g,
            tokens_per_sec=tp,
            speedup=tp / base,
            efficiency=tp / base / g,
        )
        for g, tp in sorted(throughputs.items())
    ]
