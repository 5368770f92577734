"""Table 2 platform presets and baseline-hardware specs.

Bandwidths, processor counts and memory sizes are the paper's numbers
(Table 2 and Section 7.1 prose); FLOPS are the public datasheet values.

Efficiency calibration
----------------------
``mem_efficiency`` is the single fitted constant per architecture.  It was
set once so that the Maxwell Titan X lands near the paper's 173.6 M
tokens/s on the NYTimes-shaped workload of ``benchmarks/bench_table4``;
Pascal and Volta values additionally encode the architectural gains the
paper observes beyond raw bandwidth (Volta's 4.03X over Maxwell exceeds
its 2.68X bandwidth ratio thanks to better atomics, more SMs and a larger
unified L1).  Nothing else is fitted: every other reported number is a
prediction of the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.spec import CpuSpec, DeviceSpec

# --- GPUs (Table 2) -----------------------------------------------------

TITAN_X_MAXWELL = DeviceSpec(
    name="TITAN X",
    arch="Maxwell",
    mem_bandwidth_gbps=336.0,
    peak_gflops=6_144.0,
    num_sms=24,
    shared_mem_per_sm_kb=96,
    l1_kb_per_sm=24,
    memory_gb=12.0,
    mem_efficiency=0.58,
    compute_efficiency=0.35,
    atomic_gops=12.0,
)

TITAN_XP_PASCAL = DeviceSpec(
    name="Titan Xp",
    arch="Pascal",
    mem_bandwidth_gbps=550.0,
    peak_gflops=12_150.0,
    num_sms=28,  # paper's count for its Titan Xp parts
    shared_mem_per_sm_kb=96,
    l1_kb_per_sm=48,
    memory_gb=12.0,
    mem_efficiency=0.43,
    compute_efficiency=0.35,
    atomic_gops=20.0,
)

V100_VOLTA = DeviceSpec(
    name="V100",
    arch="Volta",
    mem_bandwidth_gbps=900.0,
    peak_gflops=14_000.0,
    num_sms=80,
    shared_mem_per_sm_kb=96,
    l1_kb_per_sm=128,
    memory_gb=16.0,
    mem_efficiency=0.80,
    compute_efficiency=0.45,
    atomic_gops=64.0,
)

#: SaberLDA's evaluation GPU (Section 7.2): "GTX 1080 ... at the same
#: generation with our Titan platform and it's more powerful than Titan".
GTX_1080_PASCAL = DeviceSpec(
    name="GTX 1080",
    arch="Pascal",
    mem_bandwidth_gbps=320.0,
    peak_gflops=8_873.0,
    num_sms=20,
    shared_mem_per_sm_kb=96,
    l1_kb_per_sm=48,
    memory_gb=8.0,
    mem_efficiency=0.43,
    compute_efficiency=0.35,
    atomic_gops=20.0,
)


# --- Host CPUs (Table 2) --------------------------------------------------

XEON_E5_2670 = CpuSpec(
    name="Xeon E5-2670 x2", mem_bandwidth_gbps=51.2, peak_gflops=332.8,
    cores=16, llc_mb=20.0,
)
XEON_E5_2650_V3 = CpuSpec(
    name="Xeon E5-2650 v3 x2", mem_bandwidth_gbps=68.0, peak_gflops=640.0,
    cores=20, llc_mb=25.0,
)
#: The Volta platform host; the paper quotes 470 GFLOPS / 51.2 GB/s for it.
XEON_E5_2690_V4 = CpuSpec(
    name="Xeon E5-2690 v4 x2", mem_bandwidth_gbps=51.2, peak_gflops=470.0,
    cores=28, llc_mb=35.0,
)


@dataclass(frozen=True)
class Platform:
    """One row of Table 2: a host CPU plus ``num_gpus`` identical GPUs."""

    name: str
    cpu: CpuSpec
    gpu: DeviceSpec
    num_gpus: int

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ValueError(f"num_gpus must be >= 1, got {self.num_gpus}")


MAXWELL_PLATFORM = Platform("Maxwell", XEON_E5_2670, TITAN_X_MAXWELL, 1)
PASCAL_PLATFORM = Platform("Pascal", XEON_E5_2650_V3, TITAN_XP_PASCAL, 4)
VOLTA_PLATFORM = Platform("Volta", XEON_E5_2690_V4, V100_VOLTA, 2)

#: The three evaluation platforms in Table 2 order.
ALL_PLATFORMS = (MAXWELL_PLATFORM, PASCAL_PLATFORM, VOLTA_PLATFORM)


def platform_by_name(name: str) -> Platform:
    """Look up a Table 2 platform by (case-insensitive) name."""
    for p in ALL_PLATFORMS:
        if p.name.lower() == name.lower():
            return p
    raise KeyError(
        f"unknown platform {name!r}; choose from "
        f"{[p.name for p in ALL_PLATFORMS]}"
    )
