"""Execution-time breakdown (Table 5).

Table 5 reports the share of GPU execution time spent in the three
kernels — sampling, update-theta, update-phi — on NYTimes per platform
(sampling dominates at 79-88%).  The trainers' cost ledgers record per
-kernel simulated seconds (``kernel_breakdown()``); this module turns
every ledger entry, transfers and sync included, into a share of the
total.  Table 5's own rows normalise ``kernel_breakdown()`` over the
three kernels only.
"""

from __future__ import annotations

from repro.core.trainer import CuLdaTrainer


def full_fractions(trainer: CuLdaTrainer) -> dict[str, float]:
    """All ledger entries (kernels + transfer + sync) as shares of total.

    Raises ``ValueError`` until an iteration has run: construction
    already charges the initial upload as ``transfer``, so the guard
    tests the three Table 5 kernels, not the ledger total.
    """
    merged = trainer.kernel_breakdown()
    if not any(merged.get(k) for k in ("sampling", "update_theta", "update_phi")):
        raise ValueError("trainer has no recorded kernel time yet")
    total = sum(merged.values())
    return {k: v / total for k, v in sorted(merged.items())}
