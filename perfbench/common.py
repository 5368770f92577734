"""Shared pieces of the benchmark: paths, environment, statistics, memory, output.

Nothing here touches the program under test except :func:`environment`,
which reads the NumPy version.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: The program under test is built from source: its package lives here.
SRC = ROOT / "src"
#: Everything a run writes (traces, scratch inputs) goes under this directory.
OUT = ROOT / ".perfbench"

#: How many times each workload repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: A tail percentile must have at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def require_program() -> None:
    """Put the program's sources on the import path, or fail loudly.

    Raises ``SystemExit(2)`` when the checkout holds no ``src/repro``
    (e.g. only the benchmark's own files), before any result is printed.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict[str, str]:
    """Environment for a child process that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


@contextmanager
def workdir():
    """A scratch directory inside the checkout, removed afterwards."""
    OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# -- environment ----------------------------------------------------------


def environment() -> dict:
    import numpy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = os.cpu_count()
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def host_speed_probe(scale: float = 1.0) -> float:
    """Seconds for a fixed reference loop (pure Python, then small NumPy).

    About one second on a 2-CPU x86 host at ``scale=1``.  It runs before
    and after a workload so a steadiness report can tell host drift from
    a program change; it is a diagnostic and never a metric.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(int(4_500_000 * scale)):
        acc = (acc + i * i) % 1_000_003
    a = np.arange(256, dtype=np.float64)
    for _ in range(int(75_000 * scale)):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def sha256_of(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


# -- statistics -------------------------------------------------------------


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ``TAIL_MIN_BEYOND`` of ``n``
    samples beyond it (50 when there are too few samples for a tail)."""
    if n < 2 * TAIL_MIN_BEYOND:
        return 50
    return int(math.floor(100.0 * (n - TAIL_MIN_BEYOND) / n))


def percentile(samples, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def median(samples) -> float:
    return float(statistics.median(samples))


# -- memory -----------------------------------------------------------------


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (VmHWM) of ``pid``, or of this process, in MB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- output -----------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    #: end-to-end metrics, name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: per-layer metrics of the traced run, name -> (value, unit)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: human-readable lines printed before the result
    notes: list[str] = field(default_factory=list)
    #: correctness failures, one line each
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


def result_line(outcome: Outcome, trace: bool) -> str:
    metrics = outcome.layers if trace else outcome.metrics
    return json.dumps(
        {
            "correct": not outcome.failures,
            "attempted": int(outcome.attempted),
            "failed": int(outcome.failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
