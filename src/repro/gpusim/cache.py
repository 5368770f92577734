"""Cache-behaviour models for effective-bandwidth scaling.

Section 3.2 of the paper: CPU LDA solutions "mainly rely on caches to
improve the memory bandwidth.  However, the increasing data size makes
the cache performance sub-optimal."  The CPU model here captures that
cliff; the GPU model captures the paper's two on-chip levers — the L1
hint for sparse-index loads (Section 6.1.2, citing [28]) and the shared
memory whose hits are simply *not charged* by the cost builders.

Both models are deliberately simple, monotone and documented: they decide
*shape* (who wins and when the CPU falls off), not absolute truth.
"""

from __future__ import annotations

from repro.gpusim.spec import CpuSpec, DeviceSpec


def cpu_cache_bandwidth_factor(
    spec: CpuSpec,
    working_set_bytes: float,
    hot_fraction: float = 0.3,
    cached_speedup: float = 6.0,
) -> float:
    """Effective-bandwidth multiplier for a CPU pass over a working set.

    Model: a ``hot_fraction`` of accesses go to a hot region (topic rows of
    frequent words, dense doc rows).  While the hot region fits in the LLC
    those accesses run at ``cached_speedup`` x DRAM bandwidth; as the
    working set grows the cached share decays like ``llc / working_set``
    (the standard cache-miss model for streaming-with-reuse workloads).

    Returns a factor >= 1 when the set fits in cache (cache makes the CPU
    *faster* than DRAM bandwidth), tending to 1.0 from above as the set
    grows — matching the paper's observation that big corpora erase the
    CPU's cache advantage.
    """
    if working_set_bytes < 0:
        raise ValueError("working set must be non-negative")
    llc = spec.llc_mb * 1e6
    if working_set_bytes <= llc:
        hit_rate = 1.0
    else:
        hit_rate = llc / working_set_bytes
    hot = hot_fraction * hit_rate
    # Harmonic blend of cached and uncached access times.
    factor = 1.0 / (hot / cached_speedup + (1.0 - hot))
    return factor


def gpu_l1_index_factor(spec: DeviceSpec, index_bytes_per_sm: float) -> float:
    """Bandwidth discount for sparse-index loads routed through L1.

    The paper lets "the sparse matrix index access instructions use the L1
    cache" [28].  If the per-SM index working set fits L1 the loads are
    nearly free (factor ~ ``0.25``: a quarter of the traffic reaches DRAM
    due to cold misses); otherwise the factor rises toward 1 (all traffic
    reaches DRAM).

    Returns the fraction of index traffic that must be charged to DRAM.
    """
    if index_bytes_per_sm < 0:
        raise ValueError("index working set must be non-negative")
    l1 = spec.l1_kb_per_sm * 1024.0
    if index_bytes_per_sm <= l1:
        return 0.25
    # Smooth degradation: hit rate ~ l1 / ws.
    hit = l1 / index_bytes_per_sm
    return 1.0 - 0.75 * hit
