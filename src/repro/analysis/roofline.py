"""Roofline characterization of LDA sampling — reproduces Table 1.

Section 3.1: the paper computes, for each step of one LDA sampling, the
arithmetic intensity (Flops/Byte, Eq. 3) under 32-bit integer and 32-bit
float data, theta in CSR.  The values (Kd-independent where both terms
scale with Kd):

    Compute S          4*Kd  / (3*Int*Kd)              = 0.33
    Compute Q          2*K   / (2*Int*K)               = 0.25
    Sampling from p1   6*Kd  / ((3*Int + 2*Float)*Kd)  = 0.30
    Sampling from p2   3*K   / ((2*Int + 2*Float)*K)   = 0.19

Average ~ 0.27, far below any realistic machine balance (the paper's
host CPU: 470 GFLOPS / 51.2 GB/s = 9.2) — **LDA is memory bound**, the
observation the whole system design follows from.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.spec import CpuSpec, DeviceSpec

INT = 4  # Table 1 uses 32-bit integers
FLOAT = 4  # and 32-bit floats


@dataclass(frozen=True)
class StepIntensity:
    """One Table 1 row."""

    step: str
    formula: str
    flops: float
    bytes: float

    @property
    def flops_per_byte(self) -> float:
        if self.bytes == 0:
            return float("inf")
        return self.flops / self.bytes


def table1_rows(num_topics: int = 1024, kd: int = 128) -> list[StepIntensity]:
    """The four Table 1 steps evaluated at (K, Kd).

    The ratios are independent of K and Kd (both numerator and denominator
    scale identically), matching the constant values the paper prints.
    """
    if num_topics < 1 or kd < 1:
        raise ValueError("num_topics and kd must be positive")
    k, kd_ = float(num_topics), float(kd)
    return [
        StepIntensity(
            "Compute S", "4*Kd / (3*Int*Kd)", 4 * kd_, 3 * INT * kd_
        ),
        StepIntensity(
            "Compute Q", "2*K / (2*Int*K)", 2 * k, 2 * INT * k
        ),
        StepIntensity(
            "Sampling from p1(k)",
            "6*Kd / ((3*Int+2*Float)*Kd)",
            6 * kd_,
            (3 * INT + 2 * FLOAT) * kd_,
        ),
        StepIntensity(
            "Sampling from p2(k)",
            "3*K / ((2*Int+2*Float)*K)",
            3 * k,
            (2 * INT + 2 * FLOAT) * k,
        ),
    ]


def average_intensity(rows: list[StepIntensity] | None = None) -> float:
    """Mean Flops/Byte over the steps — the paper's headline 0.27."""
    rows = rows if rows is not None else table1_rows()
    if not rows:
        raise ValueError("no rows")
    return sum(r.flops_per_byte for r in rows) / len(rows)


def is_memory_bound(
    processor: CpuSpec | DeviceSpec, intensity: float | None = None
) -> bool:
    """Roofline verdict: is LDA under the processor's ridge point?

    True for every platform in Table 2 — the paper's conclusion.
    """
    if intensity is None:
        intensity = average_intensity()
    if intensity < 0:
        raise ValueError("intensity must be non-negative")
    return intensity < processor.machine_balance
