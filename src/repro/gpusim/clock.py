"""Roofline cost accounting: kernel costs -> simulated seconds.

Every kernel in the reproduction executes real math over real arrays and
reports a :class:`KernelCost` whose byte/flop counts come from the same
per-step formulas as Table 1, applied to the *actual* runtime sparsity of
the model.  The clock converts a cost to time with the standard roofline
rule (Williams et al., cited as [26] by the paper):

    t = launch + max(bytes / BW_eff, flops / FLOPS_eff) + atomics / A_eff

The memory term dominates for LDA (Flops/Byte ~ 0.27 vs machine balance
>= 9), which is precisely the paper's Section 3 conclusion — the model
makes that conclusion *operational*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpusim.spec import CpuSpec, DeviceSpec


@dataclass(frozen=True)
class KernelCost:
    """Resource consumption of one kernel launch.

    ``bytes_read``/``bytes_written`` count off-chip traffic only: data
    served from shared memory or assumed L1-resident (e.g. the shared
    p2-tree, the cached p*(k) row) must not be charged — that is the whole
    point of the paper's Section 6 optimizations.
    """

    bytes_read: float = 0.0
    bytes_written: float = 0.0
    flops: float = 0.0
    atomic_ops: float = 0.0

    def __post_init__(self) -> None:
        if min(self.bytes_read, self.bytes_written, self.flops, self.atomic_ops) < 0:
            raise ValueError("cost components must be non-negative")

    @property
    def bytes_total(self) -> float:
        return self.bytes_read + self.bytes_written

    @property
    def flops_per_byte(self) -> float:
        """Arithmetic intensity (Eq. 3). Infinite if no memory traffic."""
        if self.bytes_total == 0:
            return float("inf")
        return self.flops / self.bytes_total

    def __add__(self, other: KernelCost) -> KernelCost:
        return KernelCost(
            self.bytes_read + other.bytes_read,
            self.bytes_written + other.bytes_written,
            self.flops + other.flops,
            self.atomic_ops + other.atomic_ops,
        )

    def scaled(self, factor: float) -> KernelCost:
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return KernelCost(
            self.bytes_read * factor,
            self.bytes_written * factor,
            self.flops * factor,
            self.atomic_ops * factor,
        )


ZERO_COST = KernelCost()


def gpu_kernel_time(spec: DeviceSpec, cost: KernelCost) -> float:
    """Simulated seconds for one kernel launch on ``spec``."""
    mem_t = cost.bytes_total / spec.effective_bandwidth
    comp_t = cost.flops / spec.effective_flops
    atomic_t = cost.atomic_ops / (spec.atomic_gops * 1e9)
    return spec.kernel_launch_us * 1e-6 + max(mem_t, comp_t) + atomic_t


def cpu_kernel_time(
    spec: CpuSpec, cost: KernelCost, bandwidth_factor: float = 1.0
) -> float:
    """Simulated seconds for a CPU pass.

    ``bandwidth_factor`` in (0, 1] comes from the cache model: it scales
    the effective bandwidth down when the working set spills the LLC.
    """
    if not (0 < bandwidth_factor <= 1):
        raise ValueError(f"bandwidth_factor must be in (0, 1], got {bandwidth_factor}")
    bw = spec.mem_bandwidth_gbps * 1e9 * spec.mem_efficiency * bandwidth_factor
    mem_t = cost.bytes_total / bw
    comp_t = cost.flops / (spec.peak_gflops * 1e9 * 0.5)
    return max(mem_t, comp_t)


@dataclass
class CostLedger:
    """Accumulates per-kernel costs and times, keyed by kernel name.

    This is the data source for Table 5 (execution-time breakdown): the
    trainer tags every launch with its kernel name ("sampling",
    "update_theta", "update_phi", "sync", "transfer") and the ledger
    aggregates simulated seconds per tag.
    """

    seconds: dict[str, float] = field(default_factory=dict)
    costs: dict[str, KernelCost] = field(default_factory=dict)
    launches: dict[str, int] = field(default_factory=dict)

    def charge(self, name: str, cost: KernelCost, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.costs[name] = self.costs.get(name, ZERO_COST) + cost
        self.launches[name] = self.launches.get(name, 0) + 1

    def merge(self, other: CostLedger) -> None:
        for k in other.seconds:
            self.charge(k, other.costs[k], other.seconds[k])
            # charge() bumps launches by 1; fix up to the true count.
            self.launches[k] += other.launches[k] - 1
