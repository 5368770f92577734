"""Hardware specifications for the simulated platforms.

The reproduction has no physical GPU, so every device is described by the
handful of parameters the paper's own analysis uses (Section 3 roofline,
Section 7 platform table): peak memory bandwidth, peak single-precision
FLOPS, processor count, on-chip memory sizes and interconnect reach.

Efficiency factors model the gap between peak and achieved bandwidth for
the irregular access patterns of LDA; they are per-architecture constants
(documented and calibrated once in :mod:`repro.gpusim.platform`), not
per-experiment knobs.
"""

from __future__ import annotations

from dataclasses import dataclass

GB = 10**9


@dataclass(frozen=True)
class DeviceSpec:
    """Parameters of one simulated GPU.

    Attributes
    ----------
    name / arch:
        Marketing name and architecture family (used in reports).
    mem_bandwidth_gbps:
        Peak off-chip memory bandwidth, GB/s (e.g. Titan X: 336).
    peak_gflops:
        Peak single-precision GFLOPS.
    num_sms:
        Streaming multiprocessors ("processors" in the paper's wording).
    shared_mem_per_sm_kb / l1_kb_per_sm:
        On-chip memory sizes; bound the index-tree capacity per block.
    memory_gb:
        Device memory capacity (decimal GB), enforced by the allocator.
    mem_efficiency:
        Achieved / peak bandwidth for the word-block sampling access
        pattern (coalesced token streams + L1-cached sparse indices).
    compute_efficiency:
        Achieved / peak FLOPS for the same kernels.
    atomic_gops:
        Throughput of data-local atomic adds, in Gop/s (Section 6.2:
        "atomic functions that have good data locality show good
        performance").
    kernel_launch_us:
        Fixed launch latency charged per kernel.
    warp_size:
        SIMD width (32 on NVIDIA, 64 on AMD).
    """

    name: str
    arch: str
    mem_bandwidth_gbps: float
    peak_gflops: float
    num_sms: int
    shared_mem_per_sm_kb: int
    l1_kb_per_sm: int
    memory_gb: float
    mem_efficiency: float = 0.75
    compute_efficiency: float = 0.5
    atomic_gops: float = 20.0
    kernel_launch_us: float = 5.0
    warp_size: int = 32

    def __post_init__(self) -> None:
        if self.mem_bandwidth_gbps <= 0 or self.peak_gflops <= 0:
            raise ValueError("bandwidth and FLOPS must be positive")
        if not (0 < self.mem_efficiency <= 1 and 0 < self.compute_efficiency <= 1):
            raise ValueError("efficiency factors must be in (0, 1]")
        if self.num_sms < 1 or self.memory_gb <= 0:
            raise ValueError("num_sms and memory_gb must be positive")
        if self.warp_size < 1:
            raise ValueError("warp_size must be positive")

    @property
    def memory_bytes(self) -> int:
        return int(self.memory_gb * GB)

    @property
    def effective_bandwidth(self) -> float:
        """Achieved bandwidth in bytes/second."""
        return self.mem_bandwidth_gbps * GB * self.mem_efficiency

    @property
    def effective_flops(self) -> float:
        """Achieved FLOPS in flop/second."""
        return self.peak_gflops * 1e9 * self.compute_efficiency

    @property
    def machine_balance(self) -> float:
        """Peak Flops/Byte ratio — the roofline ridge point (Section 3)."""
        return self.peak_gflops / self.mem_bandwidth_gbps


@dataclass(frozen=True)
class CpuSpec:
    """Parameters of a simulated CPU socket pair (the host in Table 2).

    The cache model (``repro.gpusim.cache``) degrades the effective
    bandwidth when the working set exceeds ``llc_mb`` — this is exactly
    the "increasing data size makes the cache performance sub-optimal"
    effect the paper cites as the CPU scalability wall.
    """

    name: str
    mem_bandwidth_gbps: float
    peak_gflops: float
    cores: int
    llc_mb: float
    memory_gb: float = 64.0
    mem_efficiency: float = 0.85

    def __post_init__(self) -> None:
        if self.mem_bandwidth_gbps <= 0 or self.peak_gflops <= 0:
            raise ValueError("bandwidth and FLOPS must be positive")
        if self.cores < 1 or self.llc_mb <= 0:
            raise ValueError("cores and llc_mb must be positive")

    @property
    def machine_balance(self) -> float:
        """Peak Flops/Byte — the paper quotes 470/51.2 = 9.2 for its host."""
        return self.peak_gflops / self.mem_bandwidth_gbps

    @property
    def memory_bytes(self) -> int:
        return int(self.memory_gb * GB)
