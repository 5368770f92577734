"""Simulated GPU substrate.

The reproduction substitutes the paper's physical GPUs with a functional +
analytical simulator.  Kernels execute real NumPy math; this package
accounts for their simulated time with a roofline clock, byte-accurate
device memory, stream/engine timelines with genuine copy/compute
overlap, and latency+bandwidth interconnect models.
"""

from repro.gpusim.clock import CostLedger, KernelCost, ZERO_COST, cpu_kernel_time, gpu_kernel_time
from repro.gpusim.device import SimulatedGPU, p2p_copy
from repro.gpusim.interconnect import (
    ETHERNET_10G,
    HostLinkTopology,
    Link,
    NVLINK,
    NVLINK_TOPOLOGY,
    PCIE_3,
    PCIE_TOPOLOGY,
    broadcast_pairs,
    tree_reduce_pairs,
)
from repro.gpusim.memory import DeviceMemory, DeviceOutOfMemoryError
from repro.gpusim.platform import (
    ALL_PLATFORMS,
    GTX_1080_PASCAL,
    MAXWELL_PLATFORM,
    PASCAL_PLATFORM,
    Platform,
    TITAN_X_MAXWELL,
    TITAN_XP_PASCAL,
    V100_VOLTA,
    VOLTA_PLATFORM,
    platform_by_name,
)
from repro.gpusim.spec import CpuSpec, DeviceSpec
from repro.gpusim.stream import Stream, Timeline, barrier

__all__ = [
    "KernelCost",
    "ZERO_COST",
    "CostLedger",
    "gpu_kernel_time",
    "cpu_kernel_time",
    "SimulatedGPU",
    "p2p_copy",
    "DeviceMemory",
    "DeviceOutOfMemoryError",
    "DeviceSpec",
    "CpuSpec",
    "Link",
    "PCIE_3",
    "NVLINK",
    "ETHERNET_10G",
    "HostLinkTopology",
    "PCIE_TOPOLOGY",
    "NVLINK_TOPOLOGY",
    "tree_reduce_pairs",
    "broadcast_pairs",
    "Stream",
    "Timeline",
    "barrier",
    "Platform",
    "MAXWELL_PLATFORM",
    "PASCAL_PLATFORM",
    "VOLTA_PLATFORM",
    "ALL_PLATFORMS",
    "TITAN_X_MAXWELL",
    "TITAN_XP_PASCAL",
    "V100_VOLTA",
    "GTX_1080_PASCAL",
    "platform_by_name",
]
