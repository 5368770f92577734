"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload train_serial --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is 0 only when every correctness check passed.  See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

if __package__ in (None, ""):
    # Run as a script: make ``perfbench`` importable from the checkout root.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("train_serial", "train_store_parallel", "serve")

#: Every per-layer metric and its unit; a workload reports 0 for layers it
#: does not run.
LAYER_UNITS = {
    "core.sample_chunk.s": "s",
    "core.sample_chunk.calls": "count",
    "core.apply_phi_update.s": "s",
    "core.rebuild_theta.s": "s",
    "core.synchronize.s": "s",
    "core.likelihood.s": "s",
    "core.sum_kd": "count",
    "core.changed_tokens": "count",
    "core.p1_draws": "count",
    "perf.workspace.nbytes": "bytes",
    "perf.workspace.misses": "count",
    "gpusim.accounting.s": "s",
    "parallel.dispatch.s": "s",
    "parallel.collect_wait.s": "s",
    "core.sync.merge.s": "s",
    "parallel.iteration0.s": "s",
    "parallel.recoveries": "count",
    "corpus.ingest.s": "s",
    "corpus.store_read.s": "s",
    "corpus.store_read.calls": "count",
    "model.service_ms.p50": "ms",
    "model.service_ms.tail": "ms",
    "serving.queue_wait_ms.p50": "ms",
    "serving.queue_wait_ms.tail": "ms",
    "serving.batch_requests.mean": "requests",
    "serving.overhead_ms.p50": "ms",
    "model.ready_s": "s",
    "model.transform_1doc_ms": "ms",
    "model.transform_256doc_ms": "ms",
    "serving.busy": "count",
    "serving.errors": "count",
    "serving.shed": "count",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
}


def _workload(name: str, toy: bool):
    """(spec, run function) for a workload name."""
    if name == "serve":
        from perfbench import serve

        spec = serve.toy(serve.SERVE) if toy else serve.SERVE
        return spec, serve.run
    from perfbench import train

    spec = train.TRAIN_SERIAL if name == "train_serial" else train.TRAIN_STORE_PARALLEL
    return (train.toy(spec) if toy else spec), train.run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measurement budget; sizes the fixed work of a run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: also run traced and report per-layer metrics")
    ap.add_argument("--toy", action="store_true",
                    help="smoke-test scale (seconds, not minutes)")
    args = ap.parse_args(argv)

    common.require_program()
    spec, run = _workload(args.workload, args.toy)
    env = common.environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' toy' if args.toy else ''}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    probe_scale = 0.03 if args.toy else 0.5
    before = common.host_speed_probe(probe_scale)
    outcome = run(spec, args.seed, args.seconds, bool(args.trace))
    # Process-mode shared memory starts multiprocessing's resource tracker;
    # stop it and wait for it, so no process the run started outlives it.
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    after = common.host_speed_probe(probe_scale)
    for line in outcome.notes:
        print(line)
    print(f"host probe {before:.3f} s before, {after:.3f} s after "
          f"(diagnostic, not a metric)")
    if args.trace:
        outcome.layers = {
            name: outcome.layers.get(name, (0.0, unit))
            for name, unit in LAYER_UNITS.items()
        }
        for name, (value, unit) in outcome.metrics.items():
            print(f"  (untraced) {name:<26} {value:>16.6g} {unit}")
    shown = outcome.layers if args.trace else outcome.metrics
    for name, (value, unit) in shown.items():
        print(f"{name:<30} {value:>16.6g} {unit}")
    for failure in outcome.failures:
        print(f"FAILED: {failure}")
    print(f"attempted {outcome.attempted}, failed {outcome.failed}")
    print(common.result_line(outcome, bool(args.trace)), flush=True)
    return 1 if outcome.failures else 0


if __name__ == "__main__":
    sys.exit(main())
