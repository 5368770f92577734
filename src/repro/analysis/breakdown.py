"""Execution-time breakdown (Table 5).

Table 5 reports the share of GPU execution time spent in the three
kernels — sampling, update-theta, update-phi — on NYTimes per platform
(sampling dominates at 79-88%).  The trainers' cost ledgers record per
-kernel simulated seconds; this module normalises them the way the paper
does (over the three kernels, excluding transfers/sync which Table 5
does not show).
"""

from __future__ import annotations

from repro.core.trainer import CuLdaTrainer

#: The Table 5 kernel names in row order.
TABLE5_KERNELS = ("sampling", "update_theta", "update_phi")


def table5_fractions(trainer: CuLdaTrainer) -> dict[str, float]:
    """Kernel time shares normalised over the three Table 5 kernels."""
    merged = trainer.kernel_breakdown()
    total = sum(merged.get(k, 0.0) for k in TABLE5_KERNELS)
    if total <= 0:
        raise ValueError("trainer has no recorded kernel time yet")
    return {k: merged.get(k, 0.0) / total for k in TABLE5_KERNELS}


def full_fractions(trainer: CuLdaTrainer) -> dict[str, float]:
    """All ledger entries (kernels + transfer + sync) as shares of total."""
    merged = trainer.kernel_breakdown()
    total = sum(merged.values())
    if total <= 0:
        raise ValueError("trainer has no recorded time yet")
    return {k: v / total for k, v in sorted(merged.items())}
