"""Interconnect models: PCIe, NVLink, Ethernet (Sections 3.2 and 5).

Transfers are modeled as ``latency + bytes / bandwidth`` — the same
first-order model the paper uses when it compares PCIe 3.0 (16 GB/s) to
the 10 Gb/s Ethernet of LDA* [34] and to NVLink (300 GB/s).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Link:
    """A point-to-point link."""

    name: str
    bandwidth_gbps: float  # GB/s (bytes, not bits)
    latency_us: float = 10.0

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_gbps}")
        if self.latency_us < 0:
            raise ValueError(f"latency must be non-negative, got {self.latency_us}")

    def transfer_time(self, nbytes: float) -> float:
        """Seconds to move ``nbytes`` across this link."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        return self.latency_us * 1e-6 + nbytes / (self.bandwidth_gbps * 1e9)


#: PCIe 3.0 x16: "up to 16GB/s" (Section 3.2 / Section 7 preamble).
PCIE_3 = Link("PCIe 3.0 x16", bandwidth_gbps=16.0, latency_us=10.0)

#: NVLink as quoted for DGX-1: "up to 300GB/s" aggregate.
NVLINK = Link("NVLink", bandwidth_gbps=300.0, latency_us=5.0)

#: The 10 Gb/s Ethernet used by LDA* [34]: 10 Gbit/s = 1.25 GB/s.
ETHERNET_10G = Link("10GbE", bandwidth_gbps=1.25, latency_us=50.0)


@dataclass(frozen=True)
class HostLinkTopology:
    """Connectivity of one machine: host<->GPU and GPU<->GPU links.

    The paper's platforms connect everything over PCIe 3.0; peer-to-peer
    GPU copies also traverse PCIe.  A topology with ``p2p=NVLINK`` models
    a DGX-class box (used by the interconnect ablation bench).
    """

    host_to_device: Link = PCIE_3
    device_to_device: Link = PCIE_3

    def h2d_time(self, nbytes: float) -> float:
        return self.host_to_device.transfer_time(nbytes)

    def d2h_time(self, nbytes: float) -> float:
        return self.host_to_device.transfer_time(nbytes)

    def p2p_time(self, nbytes: float) -> float:
        return self.device_to_device.transfer_time(nbytes)


PCIE_TOPOLOGY = HostLinkTopology(PCIE_3, PCIE_3)
NVLINK_TOPOLOGY = HostLinkTopology(PCIE_3, NVLINK)


def tree_reduce_pairs(num_devices: int) -> list[list[tuple[int, int]]]:
    """The (src, dst) transfer pairs of each reduce step (Figure 4).

    Step 0 for G=4: GPU1->GPU0 and GPU3->GPU2 in parallel; step 1:
    GPU2->GPU0.  Devices that received in step ``s`` add the incoming
    replica to their own before step ``s+1``.
    """
    if num_devices < 1:
        raise ValueError(f"num_devices must be >= 1, got {num_devices}")
    steps: list[list[tuple[int, int]]] = []
    span = 1
    while span < num_devices:
        pairs = []
        for dst in range(0, num_devices, span * 2):
            src = dst + span
            if src < num_devices:
                pairs.append((src, dst))
        steps.append(pairs)
        span *= 2
    return steps


def broadcast_pairs(num_devices: int) -> list[list[tuple[int, int]]]:
    """The (src, dst) transfer pairs of each broadcast step (inverse tree)."""
    return [
        [(dst, src) for (src, dst) in step]
        for step in reversed(tree_reduce_pairs(num_devices))
    ]
