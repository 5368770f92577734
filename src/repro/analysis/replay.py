"""Cross-platform replay: price a recorded run on a different GPU.

The functional trajectory of a CuLDA run — every topic draw, every theta
row length, every bucket decision — depends only on (corpus, config,
seed).  The device spec enters *only* through the clock.  So the Figure 7
/ Table 4 benches train once, keep the per-chunk
:class:`~repro.core.scheduler.ChunkResult` records, and re-price them on
each Table 2 platform through the same cost helper the trainer's clock
uses (:func:`~repro.core.scheduler.chunk_kernel_costs`).
``tests/test_replay.py`` proves replay equals a direct run.

Replay covers the single-GPU, M=1 configuration (what Figures 7/8 and
Table 4 measure); multi-GPU timing involves cross-device overlap, so the
Figure 9 bench runs the real scheduler instead.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import TrainerConfig
from repro.core.scheduler import IterationOutcome, chunk_kernel_costs
from repro.gpusim.clock import gpu_kernel_time
from repro.gpusim.spec import DeviceSpec


def replay_iteration_seconds(
    outcome: IterationOutcome,
    config: TrainerConfig,
    spec: DeviceSpec,
) -> float:
    """Simulated duration of one recorded iteration on ``spec``.

    The sum of the iteration's kernel seconds: on one device with one
    resident chunk the three kernels run back to back.
    """
    if not outcome.chunk_records:
        raise ValueError("outcome has no chunk records to replay")
    return sum(replay_kernel_seconds([outcome], config, spec).values())


def replay_throughput_series(
    outcomes: list[IterationOutcome],
    config: TrainerConfig,
    spec: DeviceSpec,
    total_tokens: int,
) -> np.ndarray:
    """Per-iteration tokens/sec of a recorded run on ``spec`` (Figure 7)."""
    if total_tokens <= 0:
        raise ValueError("total_tokens must be positive")
    out = np.empty(len(outcomes), dtype=np.float64)
    for i, oc in enumerate(outcomes):
        out[i] = total_tokens / replay_iteration_seconds(oc, config, spec)
    return out


def replay_kernel_seconds(
    outcomes: list[IterationOutcome],
    config: TrainerConfig,
    spec: DeviceSpec,
) -> dict[str, float]:
    """Per-kernel simulated seconds of a recorded run on ``spec`` (Table 5)."""
    if config.num_gpus != 1 or config.chunks_per_gpu != 1:
        raise ValueError(
            "replay covers the single-GPU resident configuration; "
            "run the real scheduler for multi-GPU or streamed runs"
        )
    out = {"sampling": 0.0, "update_phi": 0.0, "update_theta": 0.0}
    for oc in outcomes:
        for rec in oc.chunk_records:
            for kernel, cost in chunk_kernel_costs(rec, config, spec):
                out[kernel] += gpu_kernel_time(spec, cost)
    return out


def replay_cumulative_seconds(
    outcomes: list[IterationOutcome],
    config: TrainerConfig,
    spec: DeviceSpec,
) -> np.ndarray:
    """Cumulative simulated time per iteration on ``spec`` (Figure 8 x-axis)."""
    durs = [replay_iteration_seconds(oc, config, spec) for oc in outcomes]
    return np.cumsum(durs)
