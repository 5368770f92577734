"""Multi-GPU phi synchronization (Section 5.2, Figure 4).

After every iteration each device holds ``phi_g = phi_ref + delta_g``
where ``phi_ref`` is the model all replicas started the iteration from
and ``delta_g`` contains only GPU ``g``'s own chunks' updates.  The
reconciled model is

    phi_new = phi_ref + sum_g (phi_g - phi_ref)        (Eq. 4's intent)

computed with a binary **tree reduce** (GPU1->GPU0 and GPU3->GPU2 in
parallel, then GPU2->GPU0) followed by a tree **broadcast** of the result
— ``log2 G`` peer-to-peer steps each, performed entirely on the GPUs
because "the CPU is slower than GPUs in terms of matrix adding".

Token conservation is exact: every token's decrement/increment pair is
applied exactly once globally, so ``phi_new.sum() == T`` always (tested).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from repro import faults
from repro.gpusim.clock import KernelCost
from repro.gpusim.device import SimulatedGPU, p2p_copy
from repro.gpusim.interconnect import broadcast_pairs, tree_reduce_pairs

if TYPE_CHECKING:
    from repro.core.config import TrainerConfig


def reconcile_phi(
    phi_ref: np.ndarray,
    replicas: list[np.ndarray],
) -> np.ndarray:
    """Functional reconciliation: ``phi_ref + sum of replica deltas``.

    With one replica this degenerates to that replica (no copy semantics:
    a fresh array is always returned).
    """
    if not replicas:
        raise ValueError("need at least one replica")
    for r in replicas:
        if r.shape != phi_ref.shape:
            raise ValueError("replica shape mismatch")
    out = phi_ref.astype(np.int64).copy()
    for r in replicas:
        out += r.astype(np.int64) - phi_ref.astype(np.int64)
    if np.any(out < 0):
        raise AssertionError("negative count after reconciliation")
    return out.astype(phi_ref.dtype)


def reconcile_prereduced(
    phi_ref: np.ndarray,
    worker_delta_phis: list[np.ndarray],
) -> np.ndarray:
    """Reconciliation from per-worker pre-reduced deltas.

    Each entry of ``worker_delta_phis`` is one OS worker's summed signed
    update over every replica it owns, accumulated chunk pass by chunk
    pass (see :func:`repro.core.updates.apply_phi_update`).  Because the
    counts are integers, ``phi_ref + sum_w delta_w`` is exactly
    ``phi_ref + sum_g (phi_g - phi_ref)`` regardless of how groups were
    assigned to workers — bit-identical to :func:`reconcile_phi`, but
    the master adds ``W`` matrices instead of differencing ``G`` replicas
    (the O(G*K*V) -> O(W*K*V) merge reduction of process execution).
    """
    if not worker_delta_phis:
        raise ValueError("need at least one worker delta")
    out = phi_ref.astype(np.int64)  # astype always copies here
    for delta in worker_delta_phis:
        if delta.shape != phi_ref.shape:
            raise ValueError("delta shape mismatch")
        out += delta
    if np.any(out < 0):
        raise AssertionError("negative count after reconciliation")
    return out.astype(phi_ref.dtype)


def sync_with_retry(
    sync: Callable[[], tuple[np.ndarray, np.ndarray]],
    config: TrainerConfig,
    recovery_log: list[dict],
    iteration: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Run a phi merge, retrying injected transient merge failures.

    ``merge_fail`` raises *before* any mutation or simulated-clock
    charge, so the retry replays the merge bit-identically.  Budget and
    backoff are ``config``'s crash-recovery knobs
    (``recovery_retries``/``recovery_backoff``); each retried failure
    appends one event to ``recovery_log``.  culda's merges and LDA*'s
    parameter-server merge both run through here.
    """
    attempt = 0
    while True:
        try:
            return sync()
        except faults.FaultInjected as exc:
            attempt += 1
            if attempt > config.recovery_retries:
                raise
            backoff = config.recovery_backoff * (2 ** (attempt - 1))
            recovery_log.append(
                {
                    "iteration": iteration,
                    "attempt": attempt,
                    "error": str(exc),
                    "backoff_s": backoff,
                }
            )
            if backoff:
                time.sleep(backoff)


def synchronize_prereduced(
    phi_ref: np.ndarray,
    totals_ref: np.ndarray,
    worker_deltas: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Functional sync from per-worker ``(delta_phi, delta_totals)`` pairs.

    Functionally identical to :func:`synchronize` (integer arithmetic —
    same ``phi_new``/``totals_new`` to the bit) with the master-side
    merge cut to one add per OS worker.  Nothing is broadcast here: the
    workers copy the reconciled model into their own replicas at the
    next kick-off.  No simulated clock is charged here:
    the caller charges the Figure 4 tree reduce with
    :func:`simulate_phi_sync`, identically in every mode.
    """
    # Before any mutation or clock charge, so a caller-side retry after
    # an injected transient failure replays the sync cleanly.
    faults.raise_if("merge_fail", sync="prereduce")
    phi_new = reconcile_prereduced(phi_ref, [d for d, _ in worker_deltas])
    totals_new = totals_ref.astype(np.int64)  # astype always copies here
    for _, dtot in worker_deltas:
        totals_new += dtot
    return phi_new, totals_new


def simulate_phi_sync(
    gpus: list[SimulatedGPU],
    phi_bytes: int,
    kernel_name: str = "sync",
) -> float:
    """Charge the Figure 4 reduce+broadcast on the device timelines.

    Each reduce step is a peer copy of one phi replica followed by an
    element-wise add on the receiving device (read both operands, write
    one); steps within a level run in parallel on disjoint device pairs.
    Returns the completion time of the broadcast.
    """
    if not gpus:
        raise ValueError("no devices")
    if phi_bytes < 0:
        raise ValueError("phi_bytes must be non-negative")
    if len(gpus) == 1:
        return gpus[0].sync()
    end = 0.0
    for step in tree_reduce_pairs(len(gpus)):
        for src, dst in step:
            p2p_copy(gpus[src], gpus[dst], phi_bytes, name=kernel_name)
            add_cost = KernelCost(
                bytes_read=2.0 * phi_bytes, bytes_written=float(phi_bytes)
            )
            end = gpus[dst].launch(kernel_name, add_cost)
    for step in broadcast_pairs(len(gpus)):
        for src, dst in step:
            end = p2p_copy(gpus[src], gpus[dst], phi_bytes, name=kernel_name)
    return end


def synchronize(
    phi_ref: np.ndarray,
    device_phis: list[np.ndarray],
    device_totals: list[np.ndarray],
    gpus: list[SimulatedGPU] | None = None,
    phi_bytes: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Full sync: functional reconciliation + timeline charging.

    Broadcasts the reconciled model back into every ``device_phis[g]`` /
    ``device_totals[g]`` array in place (they are the replicas the next
    iteration samples against) and returns ``(phi_new, totals_new)``.
    With one replica the reconciled model *is* that replica (integer
    arithmetic), so it is checked and returned without a copy, a
    difference or a broadcast.
    """
    faults.raise_if("merge_fail", sync="barrier")
    if len(device_phis) == 1:
        phi_new = device_phis[0]
        if phi_new.shape != phi_ref.shape:
            raise ValueError("replica shape mismatch")
        if np.any(phi_new < 0):
            raise AssertionError("negative count after reconciliation")
        totals_new = phi_new.sum(axis=1, dtype=np.int64)
        device_totals[0][...] = totals_new
        return phi_new, totals_new
    phi_new = reconcile_phi(phi_ref, device_phis)
    totals_new = phi_new.sum(axis=1, dtype=np.int64)
    for g in range(len(device_phis)):
        device_phis[g][...] = phi_new
        device_totals[g][...] = totals_new
    if gpus is not None and len(gpus) > 1:
        if phi_bytes is None:
            phi_bytes = int(phi_new.nbytes)
        simulate_phi_sync(gpus, phi_bytes)
    return phi_new, totals_new
