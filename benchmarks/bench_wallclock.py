"""Wall-clock throughput benchmark: **real** tokens/sec per algorithm.

Every other bench in this directory prices a *simulated* clock (Table 1
cost models on simulated GPUs/CPUs).  This one measures the actual
Python-kernel wall-clock of every registered algorithm on a small
synthetic corpus, which is the number the kernel-performance work of
docs/PERFORMANCE.md moves.  It seeds and extends the repo's measured
perf trajectory:

- ``benchmarks/wallclock_baseline_seed.json`` holds the numbers captured
  on the pre-overhaul seed tree with this exact protocol;
- running this script measures the current tree and writes
  ``BENCH_wallclock.json`` with before/after/speedup per algorithm.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py \
        --out BENCH_wallclock.json
    PYTHONPATH=src python benchmarks/bench_wallclock.py \
        --preset medium --execution process --num-workers 4
    PYTHONPATH=src python benchmarks/bench_wallclock.py --scaling-sweep
    PYTHONPATH=src python benchmarks/bench_wallclock.py --store

Protocol: per algorithm, construct through the registry (the same path
``repro train --algo <name>`` takes), run ``--warmup`` untimed
iterations, then time single iterations with likelihood evaluation off
and keep the fastest (min over ``--iterations``, robust to scheduler
noise).  ``tokens/sec = T / best_iteration_seconds``.

``--execution process`` measures the algorithms that support the
parallel engine (culda, ldastar) on OS workers *and* pairs each with a
same-corpus serial measurement (``process_speedup``).  The
``--scaling-sweep`` mode records a real device/worker scaling curve —
culda with 4 simulated devices executed serially and with 1/2/4 OS
workers on the medium preset — under ``report["scaling"]``.  Interpret
both against ``environment.cpu_count``: process mode cannot beat serial
without real cores to run on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.api import algorithm_names, create_trainer
from repro.corpus.synthetic import SyntheticSpec, generate_synthetic_corpus

#: Corpus shapes of the wall-clock protocol, by preset name.
#: ``small`` (~20k tokens) seeds the per-algorithm trajectory (matches
#: the committed seed baseline); ``medium`` (~120k tokens) is the
#: scaling-sweep workload, big enough for per-iteration parallelism to
#: outweigh the process-barrier overhead.
PRESETS = {
    "small": {
        "name": "wallclock-small",
        "num_docs": 400,
        "num_words": 800,
        "mean_doc_len": 50.0,
        "doc_len_sigma": 0.7,
        "num_topics": 20,
    },
    "medium": {
        "name": "wallclock-medium",
        "num_docs": 1600,
        "num_words": 1600,
        "mean_doc_len": 75.0,
        "doc_len_sigma": 0.7,
        "num_topics": 20,
    },
}
CORPUS_SEED = 1234
DEFAULT_TOPICS = 64

#: Keyword overrides keeping simulated-cluster algorithms cheap to build.
SMALL_SCALE_KWARGS = {"ldastar": {"workers": 4}}

#: Worker counts of the --scaling-sweep curve (plus a serial anchor).
SWEEP_WORKERS = (1, 2, 4)
SWEEP_DEVICES = 4

#: Algorithms whose registry surface accepts the parallel-engine knobs,
#: with the device-loop shape the process measurement runs on.  culda's
#: registry default of one simulated device would cap the engine at one
#: worker, so the process path measures the 4-device (Pascal, Table 2)
#: configuration — serial and process alike, for a fair pairing;
#: ldastar's group count comes from its 4 cluster workers
#: (SMALL_SCALE_KWARGS).
PARALLEL_ALGOS = ("culda", "ldastar")
PROCESS_BASE_KWARGS = {
    "culda": {"gpus": SWEEP_DEVICES, "platform": "Pascal"},
    "ldastar": {},
}

DEFAULT_BASELINE = Path(__file__).resolve().parent / "wallclock_baseline_seed.json"


def make_corpus(scale: float = 1.0, preset: str = "small"):
    spec = dict(PRESETS[preset])
    if scale != 1.0:
        spec["num_docs"] = max(8, int(round(spec["num_docs"] * scale)))
        spec["num_words"] = max(16, int(round(spec["num_words"] * scale)))
    return generate_synthetic_corpus(SyntheticSpec(**spec), seed=CORPUS_SEED), spec


def measure_algorithm(
    name: str,
    corpus,
    topics: int,
    warmup: int,
    iterations: int,
    extra_kwargs: dict | None = None,
) -> dict:
    """Best-of-N single-iteration wall-clock for one registered algorithm."""
    kwargs = dict(SMALL_SCALE_KWARGS.get(name, {}))
    kwargs.update(extra_kwargs or {})
    trainer = create_trainer(name, corpus, topics=topics, seed=0, **kwargs)
    try:
        if warmup:
            trainer.partial_fit(warmup, compute_likelihood=False)
        best = float("inf")
        for _ in range(iterations):
            t0 = time.perf_counter()
            trainer.partial_fit(1, compute_likelihood=False)
            best = min(best, time.perf_counter() - t0)
    finally:
        close = getattr(trainer, "close", None)
        if callable(close):
            close()
    return {
        "tokens_per_sec": corpus.num_tokens / best,
        "seconds_per_iteration": best,
    }


#: Iterations per timed block in the sync-mode comparison.  The overlap
#: pipeline only engages *between* iterations of one ``train`` call
#: (the last iteration of a call always drains), so single-iteration
#: timings — like the per-algorithm ``measure_algorithm`` protocol —
#: structurally cannot measure it; a 5-iteration block pipelines 4 of
#: its 5 sync points.
SYNC_BLOCK_ITERATIONS = 5


def _measure_block(
    name: str,
    corpus,
    topics: int,
    extra_kwargs: dict,
    block: int = SYNC_BLOCK_ITERATIONS,
    repeats: int = 3,
) -> dict:
    """Best-of-N wall-clock of ``block``-iteration ``partial_fit`` calls.

    Likelihood is evaluated every iteration: that is the master-side
    work the overlap mode hides behind the workers' sampling, so timing
    with it off would understate exactly the effect being measured.
    """
    trainer = create_trainer(name, corpus, topics=topics, seed=0,
                             **extra_kwargs)
    try:
        trainer.partial_fit(1, compute_likelihood=True)  # engine warm-up
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            trainer.partial_fit(block, compute_likelihood=True)
            best = min(best, time.perf_counter() - t0)
    finally:
        close = getattr(trainer, "close", None)
        if callable(close):
            close()
    return {
        "tokens_per_sec": corpus.num_tokens * block / best,
        "seconds_per_block": best,
        "iterations_per_block": block,
    }


def run_sync_mode_bench(
    topics: int,
    scale: float = 1.0,
    num_workers: int = 2,
) -> dict:
    """Wall-clock per sync mode + a master-merge microbenchmark.

    The training measurement runs culda (4 simulated devices, process
    execution) under ``barrier``/``prereduce``/``overlap`` — identical
    draws, only the host sync schedule moves.  Each timing covers a
    multi-iteration block with per-iteration likelihood (see
    :func:`_measure_block`: the pipeline cannot engage inside a
    single-iteration call).  The microbenchmark times the master's
    reconciliation in isolation on the same model shape: differencing G
    replicas (barrier) vs adding W pre-reduced int64 accumulators,
    which is the O(G*K*V) -> O(W*K*V) reduction the overlap path rides
    on.
    """
    from repro.core.sync import reconcile_phi, reconcile_prereduced

    corpus, spec = make_corpus(scale, preset="medium")
    base = {"gpus": SWEEP_DEVICES, "platform": "Pascal",
            "execution": "process", "num_workers": num_workers}
    modes = {}
    for sync_mode in ("barrier", "prereduce", "overlap"):
        res = _measure_block(
            "culda", corpus, topics,
            extra_kwargs={**base, "sync_mode": sync_mode},
        )
        modes[sync_mode] = res
        print(
            f"sync-mode {sync_mode:9s} "
            f"{res['tokens_per_sec'] / 1e3:10.1f}k tok/s"
        )

    # -- master merge in isolation (same K x V as the training runs) ----
    k, v = topics, spec["num_words"]
    rng = np.random.default_rng(0)
    phi_ref = rng.integers(0, 50, size=(k, v)).astype(np.int32)
    deltas = [
        rng.integers(0, 3, size=(k, v)).astype(np.int64)
        for _ in range(SWEEP_DEVICES)
    ]
    replicas = [(phi_ref.astype(np.int64) + d).astype(np.int32) for d in deltas]
    # W pre-reduced accumulators carrying the same total update
    per_worker = [
        sum(deltas[g] for g in range(SWEEP_DEVICES) if g % num_workers == w)
        for w in range(num_workers)
    ]

    def best_of(fn, n=5):
        best = float("inf")
        for _ in range(n):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    barrier_s = best_of(lambda: reconcile_phi(phi_ref, replicas))
    prereduced_s = best_of(lambda: reconcile_prereduced(phi_ref, per_worker))
    assert np.array_equal(
        reconcile_phi(phi_ref, replicas),
        reconcile_prereduced(phi_ref, per_worker),
    ), "pre-reduced merge diverged from the replica merge"
    print(
        f"master merge  barrier {barrier_s * 1e3:7.3f} ms   "
        f"prereduced {prereduced_s * 1e3:7.3f} ms   "
        f"{barrier_s / prereduced_s:5.2f}x"
    )
    return {
        "preset": "medium",
        "devices": SWEEP_DEVICES,
        "num_workers": num_workers,
        "modes": modes,
        "master_merge": {
            "shape": [k, v],
            "replicas": SWEEP_DEVICES,
            "accumulators": num_workers,
            "barrier_seconds": barrier_s,
            "prereduced_seconds": prereduced_s,
            "reduction": barrier_s / prereduced_s,
            "note": (
                "identical reconciled model asserted; reduction is the "
                "O(G*K*V) -> O(W*K*V) master merge cut"
            ),
        },
        "note": (
            "same draws in every mode; timings are 5-iteration blocks "
            "with per-iteration likelihood (single-iteration calls "
            "cannot engage the overlap pipeline); training deltas "
            "bounded by environment.cpu_count"
        ),
    }


def run_inference_scaling(
    topics: int,
    workers: tuple[int, ...] = SWEEP_WORKERS,
    num_docs: int = 400,
    num_sweeps: int = 10,
    burn_in: int = 4,
    train_iterations: int = 3,
    scale: float = 1.0,
) -> dict:
    """Serving worker-scaling curve: batched session vs N-worker pools.

    Phi is frozen during serving, so the pooled results are asserted
    bit-identical to the in-process session before any number is
    reported; the curve is only interpretable next to
    ``environment.cpu_count`` (a 1-CPU container shows parity).
    """
    from repro.model import InferenceSession

    corpus, spec = make_corpus(scale, preset="medium")
    split = max(1, corpus.num_docs - max(8, int(round(num_docs * scale))))
    train, test = corpus.subset(0, split), corpus.subset(split, corpus.num_docs)
    trainer = create_trainer("culda", train, topics=topics, seed=0)
    trainer.fit(train_iterations, likelihood_every=0)
    model = trainer.export_model()
    tokens = test.num_tokens

    base_session = InferenceSession(
        model, num_sweeps=num_sweeps, burn_in=burn_in
    )
    base_session.transform(test.subset(0, min(8, test.num_docs)), seed=7)
    t0 = time.perf_counter()
    ref = base_session.transform(test, seed=7)
    base_s = time.perf_counter() - t0

    points = {}
    for w in workers:
        if w <= 1:
            points["1"] = {
                "seconds": base_s,
                "tokens_per_sec": tokens / base_s,
                "speedup_vs_single": 1.0,
            }
            continue
        with InferenceSession(
            model, num_sweeps=num_sweeps, burn_in=burn_in, num_workers=w
        ) as session:
            session.transform(
                test.subset(0, min(8, test.num_docs)), seed=7
            )  # pool warmup
            t0 = time.perf_counter()
            theta = session.transform(test, seed=7)
            secs = time.perf_counter() - t0
        if not np.array_equal(ref, theta):
            raise AssertionError(
                "pooled inference diverged from the in-process session"
            )
        points[str(w)] = {
            "seconds": secs,
            "tokens_per_sec": tokens / secs,
            "speedup_vs_single": base_s / secs,
        }
    for w, p in points.items():
        print(
            f"inference scaling  {w} worker(s) "
            f"{p['tokens_per_sec'] / 1e3:10.1f}k tok/s   "
            f"{p['speedup_vs_single']:5.2f}x vs in-process"
        )
    return {
        "preset": "medium",
        "corpus": {"spec": spec, "seed": CORPUS_SEED},
        "documents": test.num_docs,
        "tokens": tokens,
        "num_sweeps": num_sweeps,
        "burn_in": burn_in,
        "workers": points,
        "note": (
            "mixtures asserted bit-identical to the in-process session "
            "for every worker count; scaling bounded by "
            "environment.cpu_count"
        ),
    }


def run_inference_bench(
    topics: int = DEFAULT_TOPICS,
    num_docs: int = 400,
    num_sweeps: int = 10,
    burn_in: int = 4,
    train_iterations: int = 3,
    scale: float = 1.0,
    num_workers: int | None = None,
) -> dict:
    """Fold-in inference throughput: one document per batch vs batched.

    Trains a quick culda model on the **medium** preset, splits off
    ``num_docs`` unseen documents, and times topic-mixture inference for
    them twice with :class:`repro.model.InferenceSession.transform`: one
    document per batch (``batch_docs=1``, the "sequential" arm) and the
    default batch width.  The two produce bit-identical mixtures
    (asserted here), so the ratio is pure batching speedup — the
    serving-path analogue of the training trajectory above.
    """
    from repro.model import InferenceSession

    corpus, spec = make_corpus(scale, preset="medium")
    split = max(1, corpus.num_docs - max(8, int(round(num_docs * scale))))
    train, test = corpus.subset(0, split), corpus.subset(split, corpus.num_docs)
    trainer = create_trainer("culda", train, topics=topics, seed=0)
    trainer.fit(train_iterations, likelihood_every=0)
    model = trainer.export_model()

    sequential = InferenceSession(
        model, num_sweeps=num_sweeps, burn_in=burn_in, batch_docs=1
    )
    sequential.transform(test.subset(0, min(8, test.num_docs)), seed=7)  # warmup
    t0 = time.perf_counter()
    ref = sequential.transform(test, seed=7)
    sequential_s = time.perf_counter() - t0

    session = InferenceSession(model, num_sweeps=num_sweeps, burn_in=burn_in)
    session.transform(test.subset(0, min(8, test.num_docs)), seed=7)  # warmup
    t0 = time.perf_counter()
    theta = session.transform(test, seed=7)
    batched_s = time.perf_counter() - t0

    if not np.array_equal(ref, theta):
        raise AssertionError(
            "batched inference diverged from one-document batches"
        )

    parallel = None
    if num_workers is not None and num_workers > 1:
        with InferenceSession(
            model, num_sweeps=num_sweeps, burn_in=burn_in,
            num_workers=num_workers,
        ) as pooled:
            pooled.transform(
                test.subset(0, min(8, test.num_docs)), seed=7
            )  # pool warmup
            t0 = time.perf_counter()
            theta_p = pooled.transform(test, seed=7)
            parallel_s = time.perf_counter() - t0
        if not np.array_equal(ref, theta_p):
            raise AssertionError(
                "pooled inference diverged from one-document batches"
            )
        parallel = {
            "num_workers": num_workers,
            "seconds": parallel_s,
            "tokens_per_sec": test.num_tokens / parallel_s,
            "speedup_vs_batched": batched_s / parallel_s,
        }

    tokens = test.num_tokens
    result = {
        "preset": "medium",
        "corpus": {"spec": spec, "seed": CORPUS_SEED},
        "documents": test.num_docs,
        "tokens": tokens,
        "num_sweeps": num_sweeps,
        "burn_in": burn_in,
        "sequential": {
            "seconds": sequential_s,
            "tokens_per_sec": tokens / sequential_s,
        },
        "batched": {
            "seconds": batched_s,
            "tokens_per_sec": tokens / batched_s,
        },
        "speedup": sequential_s / batched_s,
        "note": "mixtures bit-identical between the two paths (asserted)",
    }
    if parallel is not None:
        result["parallel"] = parallel
    print(
        f"inference    sequential {tokens / sequential_s / 1e3:8.1f}k tok/s   "
        f"batched {tokens / batched_s / 1e3:8.1f}k tok/s   "
        f"{result['speedup']:5.2f}x"
        + (
            f"   pooled({parallel['num_workers']}w) "
            f"{parallel['tokens_per_sec'] / 1e3:8.1f}k tok/s"
            if parallel is not None else ""
        )
    )
    return result


#: Open-loop serving load shape: clients, request size, and how far past
#: the calibrated single-stream capacity the arrival rate is pushed.
SERVING_CLIENTS = 8
SERVING_DOCS_PER_REQUEST = 4
SERVING_REQUESTS_PER_CLIENT = 12
SERVING_SATURATION = 2.0
SERVING_WORKER_COUNTS = (1, 2)


def run_serving_bench(
    topics: int,
    scale: float = 1.0,
    num_clients: int = SERVING_CLIENTS,
    requests_per_client: int = SERVING_REQUESTS_PER_CLIENT,
    docs_per_request: int = SERVING_DOCS_PER_REQUEST,
    num_sweeps: int = 10,
    burn_in: int = 4,
    train_iterations: int = 3,
    worker_counts: tuple[int, ...] = SERVING_WORKER_COUNTS,
) -> dict:
    """Open-loop load against a live :class:`~repro.serving.ServingServer`.

    Open loop means arrivals follow a fixed schedule, independent of
    completions: each of ``num_clients`` connections fires its requests
    at a constant inter-arrival interval whether or not earlier replies
    are back, and a reply's latency is measured from its **scheduled**
    arrival time (so queueing delay is charged, not hidden — the
    distinction docs/PERFORMANCE.md's latency-methodology note is
    about).  The offered rate is ``SERVING_SATURATION`` times the
    calibrated in-process capacity, i.e. deliberately saturating, so the
    p99 reflects coalescer queueing under overload.  One run per
    inference worker count; interpret the spread against
    ``environment.cpu_count``.
    """
    import asyncio

    from repro.model import InferenceSession
    from repro.serving import ServingServer
    from repro.serving.protocol import read_frame, write_frame
    from repro.serving.stats import quantiles

    corpus, spec = make_corpus(scale, preset="medium")
    num_docs = max(num_clients * docs_per_request, 64)
    split = max(1, corpus.num_docs - num_docs)
    train, test = corpus.subset(0, split), corpus.subset(split, corpus.num_docs)
    trainer = create_trainer("culda", train, topics=topics, seed=0)
    trainer.fit(train_iterations, likelihood_every=0)
    model = trainer.export_model()
    doc_arrays = [
        test.word_ids[test.doc_offsets[d]: test.doc_offsets[d + 1]]
        .astype(np.int64)
        for d in range(test.num_docs)
    ]

    # Calibrate single-stream capacity in-process: the offered load is a
    # multiple of this, so "saturating" means the same thing on any host.
    session = InferenceSession(model, num_sweeps=num_sweeps, burn_in=burn_in)
    probe = doc_arrays[: docs_per_request * 8]
    session.transform(probe, seed=0)  # warmup
    t0 = time.perf_counter()
    session.transform(probe, seed=0)
    docs_per_sec = len(probe) / (time.perf_counter() - t0)
    capacity_rps = docs_per_sec / docs_per_request
    offered_rps = capacity_rps * SERVING_SATURATION
    interval = num_clients / offered_rps  # per-client inter-arrival

    def request_docs(cid: int, i: int) -> list[list[int]]:
        lo = (cid * docs_per_request + i) % max(
            1, len(doc_arrays) - docs_per_request
        )
        return [
            arr.tolist() for arr in doc_arrays[lo: lo + docs_per_request]
        ]

    async def drive(num_workers: int | None) -> dict:
        server = ServingServer(
            model,
            num_sweeps=num_sweeps,
            burn_in=burn_in,
            num_workers=num_workers,
            max_pending=num_clients * requests_per_client,
        )
        host, port = await server.start()
        latencies: list[float] = []
        busy = 0

        async def client(cid: int) -> None:
            nonlocal busy
            reader, writer = await asyncio.open_connection(host, port)
            loop = asyncio.get_running_loop()
            scheduled: dict[int, float] = {}

            async def receive() -> None:
                nonlocal busy
                for _ in range(requests_per_client):
                    reply = await read_frame(reader)
                    if reply is None:  # pragma: no cover - server gone
                        raise ConnectionError("server closed mid-bench")
                    t_done = loop.time()
                    if reply["type"] == "busy":
                        busy += 1
                    elif reply["type"] != "result":
                        raise RuntimeError(f"unexpected reply {reply!r}")
                    else:
                        latencies.append(t_done - scheduled[reply["id"]])

            rx = loop.create_task(receive())
            t_start = loop.time()
            for i in range(requests_per_client):
                target = t_start + i * interval
                delay = target - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                # charge latency from the *scheduled* arrival: a sender
                # delayed by backpressure does not absolve the server
                scheduled[i] = target
                await write_frame(writer, {
                    "op": "infer", "id": i,
                    "docs": request_docs(cid, i),
                    "seed": cid * 100_000 + i,
                })
            await rx
            writer.close()
            await writer.wait_closed()

        t_bench = time.perf_counter()
        await asyncio.gather(*[client(c) for c in range(num_clients)])
        wall = time.perf_counter() - t_bench
        server_snap = server._stats.snapshot()
        await server.stop()
        completed = len(latencies)
        return {
            "num_workers": num_workers or 1,
            "wall_seconds": wall,
            "completed": completed,
            "busy_rejected": busy,
            "achieved_rps": completed / wall,
            "client_latency_s": quantiles(latencies),
            "server_queue_wait_s": server_snap["queue_wait_s"],
            "server_service_s": server_snap["service_s"],
        }

    points = {}
    for w in worker_counts:
        res = asyncio.run(drive(None if w <= 1 else w))
        points[str(w)] = res
        lat = res["client_latency_s"]
        print(
            f"serving  {w} worker(s) "
            f"{res['achieved_rps']:8.1f} req/s   "
            f"p50 {lat['p50'] * 1e3:7.1f} ms   "
            f"p99 {lat['p99'] * 1e3:7.1f} ms   "
            f"({res['completed']} completed, {res['busy_rejected']} busy)"
        )
    return {
        "preset": "medium",
        "corpus": {"spec": spec, "seed": CORPUS_SEED},
        "num_clients": num_clients,
        "requests_per_client": requests_per_client,
        "docs_per_request": docs_per_request,
        "num_sweeps": num_sweeps,
        "burn_in": burn_in,
        "calibrated_capacity_rps": capacity_rps,
        "offered_rps": offered_rps,
        "saturation_factor": SERVING_SATURATION,
        "workers": points,
        "note": (
            "open-loop: latency charged from each request's scheduled "
            "arrival, so queueing under the saturating offered rate is "
            "included; responses asserted bit-identical to in-process "
            "inference in tests/test_serving.py; scaling bounded by "
            "environment.cpu_count"
        ),
    }


#: Faulted-serving SLO run: every request carries this deadline, and
#: every FAULT_EVERY-th dispatch is slowed well past it.
FAULTED_DEADLINE_MS = 300.0
FAULTED_SLOW_DELAY_MS = 900.0
FAULTED_EVERY = 10
FAULTED_CLIENTS = 6
FAULTED_REQUESTS_PER_CLIENT = 15
#: Reply-latency bound asserted on the committed report: with deadlines
#: enforced server-side, even faulted requests answer by deadline plus
#: slack for the round trip and scheduler jitter.
FAULTED_P99_BOUND_FACTOR = 1.5


def run_faulted_serving_bench(
    topics: int,
    scale: float = 1.0,
    num_clients: int = FAULTED_CLIENTS,
    requests_per_client: int = FAULTED_REQUESTS_PER_CLIENT,
    docs_per_request: int = SERVING_DOCS_PER_REQUEST,
    num_sweeps: int = 10,
    burn_in: int = 4,
    train_iterations: int = 3,
    deadline_ms: float = FAULTED_DEADLINE_MS,
) -> dict:
    """Closed-loop serving under a 10% ``serve_slow`` fault, with deadlines.

    Every request carries ``deadline_ms``; every ``FAULTED_EVERY``-th
    dispatch is slowed to ``FAULTED_SLOW_DELAY_MS`` — well past the
    deadline — via the chaos registry.  The SLO under test: **no client
    waits past its deadline**.  Affected requests come back as typed
    ``deadline_exceeded`` replies at the deadline, unaffected requests
    complete normally, and the p99 of *all* reply latencies stays under
    ``deadline * FAULTED_P99_BOUND_FACTOR``.  The server's shed /
    deadline / watchdog counters are recorded alongside.
    """
    import asyncio

    from repro import faults
    from repro.serving import DeadlineExceeded, ServingClient, ServingServer
    from repro.serving.stats import quantiles

    corpus, spec = make_corpus(scale, preset="medium")
    num_docs = max(num_clients * docs_per_request, 64)
    split = max(1, corpus.num_docs - num_docs)
    train, test = corpus.subset(0, split), corpus.subset(split, corpus.num_docs)
    trainer = create_trainer("culda", train, topics=topics, seed=0)
    trainer.fit(train_iterations, likelihood_every=0)
    model = trainer.export_model()
    doc_arrays = [
        test.word_ids[test.doc_offsets[d]: test.doc_offsets[d + 1]]
        .astype(np.int64)
        for d in range(test.num_docs)
    ]

    fault_spec = (
        f"serve_slow@op=infer,delay_ms={FAULTED_SLOW_DELAY_MS:.0f},"
        f"every={FAULTED_EVERY},times=any"
    )

    async def drive() -> dict:
        server = ServingServer(
            model,
            num_sweeps=num_sweeps,
            burn_in=burn_in,
            max_pending=num_clients * requests_per_client,
        )
        host, port = await server.start()
        all_latencies: list[float] = []
        ok_latencies: list[float] = []
        deadline_hits = 0
        errors = 0

        async def client(cid: int) -> None:
            nonlocal deadline_hits, errors
            loop = asyncio.get_running_loop()
            async with await ServingClient.connect(host, port) as c:
                for i in range(requests_per_client):
                    lo = (cid * docs_per_request + i) % max(
                        1, len(doc_arrays) - docs_per_request
                    )
                    docs = doc_arrays[lo: lo + docs_per_request]
                    t0 = loop.time()
                    try:
                        await c.infer(
                            docs, seed=cid * 100_000 + i,
                            deadline_ms=deadline_ms,
                        )
                        ok_latencies.append(loop.time() - t0)
                        all_latencies.append(ok_latencies[-1])
                    except DeadlineExceeded:
                        deadline_hits += 1
                        all_latencies.append(loop.time() - t0)
                    except Exception:
                        errors += 1

        t_bench = time.perf_counter()
        faults.install(fault_spec)
        try:
            await asyncio.gather(*[client(c) for c in range(num_clients)])
        finally:
            faults.reset()
        wall = time.perf_counter() - t_bench
        server_snap = server._stats.snapshot()
        breaker_snap = server._breaker.snapshot()
        await server.stop()
        return {
            "wall_seconds": wall,
            "completed": len(ok_latencies),
            "deadline_exceeded_client": deadline_hits,
            "transport_errors": errors,
            "reply_latency_s": quantiles(all_latencies),
            "ok_latency_s": quantiles(ok_latencies),
            "server_counters": {
                "shed_expired": server_snap["shed_expired"],
                "deadline_exceeded": server_snap["deadline_exceeded"],
                "watchdog_fired": server_snap["watchdog_fired"],
                "errors": server_snap["errors"],
            },
            "breaker": breaker_snap,
        }

    res = asyncio.run(drive())
    bound_s = deadline_ms / 1000.0 * FAULTED_P99_BOUND_FACTOR
    p99 = res["reply_latency_s"]["p99"] if res["reply_latency_s"] else None
    res_note = (
        f"p99 over ALL replies (successes and typed deadline errors) "
        f"vs the {bound_s * 1e3:.0f} ms bound"
    )
    print(
        f"faulted serving: {res['completed']} ok, "
        f"{res['deadline_exceeded_client']} deadline_exceeded, "
        f"p99 {p99 * 1e3:7.1f} ms (bound {bound_s * 1e3:.0f} ms)"
    )
    return {
        "preset": "medium",
        "corpus": {"spec": spec, "seed": CORPUS_SEED},
        "num_clients": num_clients,
        "requests_per_client": requests_per_client,
        "docs_per_request": docs_per_request,
        "num_sweeps": num_sweeps,
        "burn_in": burn_in,
        "deadline_ms": deadline_ms,
        "fault": fault_spec,
        "fault_fraction": 1.0 / FAULTED_EVERY,
        "p99_bound_s": bound_s,
        "p99_within_bound": (p99 is not None and p99 <= bound_s),
        "run": res,
        "note": (
            "closed-loop with per-request deadline_ms under a "
            f"{100 // FAULTED_EVERY}% serve_slow fault; {res_note}; "
            "typed replies asserted in tests/test_serving.py"
        ),
    }


#: Corpus-store bench shape: shard granularity and streaming window size.
STORE_DOCS_PER_SHARD = 256
STORE_WINDOW_DOCS = 256


def run_store_bench(
    scale: float = 1.0,
    docs_per_shard: int = STORE_DOCS_PER_SHARD,
    window_docs: int = STORE_WINDOW_DOCS,
) -> dict:
    """Durable corpus-store throughput: ingest + streaming window reads.

    Writes the medium-preset corpus to a UCI bag-of-words file, times
    :func:`repro.corpus.ingest_uci_bow` streaming it into digest-verified
    shards, then times reading it back two ways: the verified open (one
    full pass that materialises ``doc_offsets`` and digest-checks every
    shard) and a sequential sweep of ``window_docs``-document training
    windows through the shard cache.  Training from the store is
    bit-identical to in-RAM (tests/test_corpus_store.py), so these
    numbers price durability, not a different computation.
    """
    import shutil
    import tempfile

    from repro.corpus import CorpusStore, ingest_uci_bow
    from repro.corpus.io import write_uci_bow

    corpus, spec = make_corpus(scale, preset="medium")
    tmp = Path(tempfile.mkdtemp(prefix="bench-store-"))
    try:
        docword = tmp / "docword.txt"
        write_uci_bow(corpus, docword)
        store_dir = tmp / "store"
        t0 = time.perf_counter()
        manifest = ingest_uci_bow(
            docword, store_dir, docs_per_shard=docs_per_shard
        )
        ingest_s = time.perf_counter() - t0

        store = CorpusStore.open(store_dir)
        t0 = time.perf_counter()
        _ = store.doc_offsets  # timed verified materialisation
        open_s = time.perf_counter() - t0
        num_docs, num_tokens = store.num_docs, store.num_tokens

        t0 = time.perf_counter()
        read_tokens = 0
        for lo in range(0, num_docs, window_docs):
            window = store.subset(lo, min(lo + window_docs, num_docs))
            read_tokens += window.num_tokens
        window_s = time.perf_counter() - t0
        if read_tokens != num_tokens:
            raise AssertionError("window sweep lost tokens")
        shard_bytes = sum(
            (store_dir / entry["name"]).stat().st_size
            for entry in manifest["shards"]
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "preset": "medium",
        "corpus": {"spec": spec, "seed": CORPUS_SEED},
        "num_docs": num_docs,
        "num_tokens": num_tokens,
        "num_shards": len(manifest["shards"]),
        "docs_per_shard": docs_per_shard,
        "shard_bytes": shard_bytes,
        "ingest": {
            "seconds": ingest_s,
            "docs_per_sec": num_docs / ingest_s,
            "tokens_per_sec": num_tokens / ingest_s,
        },
        "verified_open": {
            "seconds": open_s,
            "tokens_per_sec": num_tokens / open_s,
        },
        "window_read": {
            "window_docs": window_docs,
            "seconds": window_s,
            "tokens_per_sec": num_tokens / window_s,
        },
        "note": (
            "ingest streams UCI bow into sha256-verified shards; window "
            "reads stream training windows through the shard cache; "
            "training from the store is bit-identical to in-RAM "
            "(tests/test_corpus_store.py)"
        ),
    }
    print(
        f"store  ingest {num_tokens / ingest_s / 1e3:8.1f}k tok/s   "
        f"verified open {num_tokens / open_s / 1e3:8.1f}k tok/s   "
        f"window read {num_tokens / window_s / 1e3:8.1f}k tok/s   "
        f"({len(manifest['shards'])} shards, {shard_bytes / 1024:.0f} KiB)"
    )
    return result


def run_scaling_sweep(
    topics: int,
    warmup: int,
    iterations: int,
    scale: float = 1.0,
    workers: tuple[int, ...] = SWEEP_WORKERS,
) -> dict:
    """culda device/worker scaling curve on the medium preset.

    One corpus, ``SWEEP_DEVICES`` simulated devices, identical draws in
    every configuration (execution mode cannot change the chain) — only
    the wall clock moves.
    """
    corpus, spec = make_corpus(scale, preset="medium")
    # Pascal is the Table 2 platform with 4 GPUs (the sweep's G).
    base = {"gpus": SWEEP_DEVICES, "platform": "Pascal"}
    serial = measure_algorithm(
        "culda", corpus, topics, warmup, iterations, extra_kwargs=base
    )
    points = {}
    for w in workers:
        proc = measure_algorithm(
            "culda", corpus, topics, warmup, iterations,
            extra_kwargs={**base, "execution": "process", "num_workers": w},
        )
        points[str(w)] = {
            "tokens_per_sec": proc["tokens_per_sec"],
            "seconds_per_iteration": proc["seconds_per_iteration"],
            "speedup_vs_serial": (
                proc["tokens_per_sec"] / serial["tokens_per_sec"]
            ),
        }
        print(
            f"scaling  {SWEEP_DEVICES} devices / {w} workers "
            f"{proc['tokens_per_sec'] / 1e3:10.1f}k tok/s   "
            f"{points[str(w)]['speedup_vs_serial']:5.2f}x vs serial"
        )
    return {
        "preset": "medium",
        "corpus": {"spec": spec, "seed": CORPUS_SEED, "num_tokens": corpus.num_tokens},
        "devices": SWEEP_DEVICES,
        "serial": serial,
        "process_workers": points,
        "note": (
            "same draws in every configuration; speedups bounded by "
            "environment.cpu_count"
        ),
    }


def run(
    out_path: Path,
    topics: int = DEFAULT_TOPICS,
    warmup: int = 1,
    iterations: int = 3,
    scale: float = 1.0,
    algos: list[str] | None = None,
    baseline_path: Path | None = DEFAULT_BASELINE,
    preset: str = "small",
    execution: str = "serial",
    num_workers: int | None = None,
    sync_mode: str = "barrier",
    scaling_sweep: bool = False,
    inference: bool = True,
    inference_workers: int | None = None,
    serving: bool = False,
    store: bool = False,
) -> dict:
    corpus, spec = make_corpus(scale, preset=preset)
    names = algos or algorithm_names()
    baseline = None
    if baseline_path is not None and Path(baseline_path).exists():
        baseline = json.loads(Path(baseline_path).read_text())
        proto = baseline.get("protocol", {})
        if (
            proto.get("corpus", {}).get("spec") != spec
            or proto.get("topics") != topics
        ):
            print(
                "baseline protocol does not match this run "
                "(different corpus/topics); before/after omitted"
            )
            baseline = None

    results: dict[str, dict] = {}
    for name in names:
        process_run = execution == "process" and name in PARALLEL_ALGOS
        base_kwargs = dict(PROCESS_BASE_KWARGS[name]) if process_run else {}
        exec_kwargs: dict = dict(base_kwargs)
        if process_run:
            exec_kwargs.update(
                {"execution": "process", "num_workers": num_workers}
            )
            if sync_mode != "barrier":
                # ldastar's engine always pre-reduces; map the culda-only
                # prereduce mode down to its barrier equivalent there.
                exec_kwargs["sync_mode"] = (
                    sync_mode
                    if name != "ldastar" or sync_mode == "overlap"
                    else "barrier"
                )
        after = measure_algorithm(
            name, corpus, topics, warmup, iterations, extra_kwargs=exec_kwargs
        )
        entry = {
            "after_tokens_per_sec": after["tokens_per_sec"],
            "after_seconds_per_iteration": after["seconds_per_iteration"],
        }
        if process_run:
            from repro.parallel import resolve_num_workers

            num_groups = (
                SWEEP_DEVICES if name == "culda"
                else SMALL_SCALE_KWARGS["ldastar"]["workers"]
            )
            # paired serial run on the same device-loop shape
            serial = measure_algorithm(
                name, corpus, topics, warmup, iterations,
                extra_kwargs=base_kwargs,
            )
            entry["execution"] = "process"
            entry["sync_mode"] = exec_kwargs.get("sync_mode", "barrier")
            entry["num_workers_requested"] = num_workers
            entry["num_workers"] = resolve_num_workers(num_workers, num_groups)
            entry["devices"] = num_groups
            entry["serial_tokens_per_sec"] = serial["tokens_per_sec"]
            entry["process_speedup"] = (
                after["tokens_per_sec"] / serial["tokens_per_sec"]
            )
        # the seed baseline ran the registry-default shape; a process run
        # measures a different device-loop shape, so no before/after pair
        if not process_run and baseline and name in baseline.get("algorithms", {}):
            before = baseline["algorithms"][name]
            entry["before_tokens_per_sec"] = before["tokens_per_sec"]
            entry["before_seconds_per_iteration"] = before[
                "seconds_per_iteration"
            ]
            entry["speedup"] = (
                after["tokens_per_sec"] / before["tokens_per_sec"]
            )
        results[name] = entry
        spd = entry.get("speedup")
        pspd = entry.get("process_speedup")
        print(
            f"{name:12s} {after['tokens_per_sec'] / 1e3:10.1f}k tok/s"
            + (f"   {spd:5.2f}x vs seed" if spd else "")
            + (f"   {pspd:5.2f}x vs serial" if pspd else "")
        )

    extras: dict[str, dict] = {}
    if "sparselda" in names:
        # The registry default is now the word-batched rewrite; keep the
        # exact sequential oracle on the trajectory too.
        exact = measure_algorithm(
            "sparselda", corpus, topics, warmup, iterations,
            extra_kwargs={"batch_words": False},
        )
        entry = {
            "after_tokens_per_sec": exact["tokens_per_sec"],
            "after_seconds_per_iteration": exact["seconds_per_iteration"],
            "note": "sparselda with batch_words=False (bit-identical oracle)",
        }
        if baseline and "sparselda" in baseline.get("algorithms", {}):
            before = baseline["algorithms"]["sparselda"]
            entry["before_tokens_per_sec"] = before["tokens_per_sec"]
            entry["speedup"] = exact["tokens_per_sec"] / before["tokens_per_sec"]
        extras["sparselda_exact"] = entry
        spd = entry.get("speedup")
        print(
            f"{'sparselda_exact':17s} {exact['tokens_per_sec'] / 1e3:5.1f}k tok/s"
            + (f"   {spd:5.2f}x vs seed" if spd else "")
        )

    scaling = None
    sync_modes = None
    inference_scaling = None
    if scaling_sweep:
        scaling = run_scaling_sweep(topics, warmup, iterations, scale)
        # fixed block protocol (see _measure_block) — the --warmup and
        # --iterations knobs describe the per-algorithm sections only
        sync_modes = run_sync_mode_bench(topics, scale=scale)
        inference_scaling = run_inference_scaling(topics, scale=scale)

    inference_report = None
    if inference:
        inference_report = run_inference_bench(
            topics=topics, scale=scale, num_workers=inference_workers
        )

    serving_report = None
    faulted_serving_report = None
    if serving:
        serving_report = run_serving_bench(topics=topics, scale=scale)
        faulted_serving_report = run_faulted_serving_bench(
            topics=topics, scale=scale
        )

    store_report = None
    if store:
        store_report = run_store_bench(scale=scale)

    report = {
        "protocol": {
            "corpus": {"spec": spec, "seed": CORPUS_SEED},
            "num_tokens": corpus.num_tokens,
            "preset": preset,
            "topics": topics,
            "warmup_iterations": warmup,
            "measured_iterations": iterations,
            "execution": execution,
            "sync_mode": sync_mode,
            "timing": (
                "min wall-clock seconds over measured single iterations, "
                "likelihood off"
            ),
            "small_scale_kwargs": SMALL_SCALE_KWARGS,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            # the affinity mask bounds what any worker pinning can do
            "affinity_cpus": (
                len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None
            ),
        },
        "baseline": (
            baseline.get("captured_at") if baseline else "not available"
        ),
        "notes": {
            "sync_mode": (
                "per-algorithm process timings are single-iteration "
                "partial_fit calls, inside which the overlap pipeline "
                "cannot engage (the last iteration of a call always "
                "drains); the sync_modes section measures "
                "multi-iteration blocks instead"
            ),
            "sparselda": (
                "the registry default switched from exact sequential sweeps "
                "to the vectorised word-batched rewrite; the exact oracle is "
                "reported under extras.sparselda_exact"
            ),
        },
        "algorithms": results,
        "extras": extras,
    }
    if scaling is not None:
        report["scaling"] = scaling
    if sync_modes is not None:
        report["sync_modes"] = sync_modes
    if inference_scaling is not None:
        report["inference_scaling"] = inference_scaling
    if inference_report is not None:
        report["inference"] = inference_report
    if serving_report is not None:
        report["serving"] = serving_report
    if faulted_serving_report is not None:
        report["serving_faulted"] = faulted_serving_report
    if store_report is not None:
        report["store"] = store_report
    out_path = Path(out_path)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {out_path}")
    return report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_wallclock.json",
                    help="output JSON path")
    ap.add_argument("--topics", type=int, default=DEFAULT_TOPICS)
    ap.add_argument("--warmup", type=int, default=1)
    ap.add_argument("--iterations", type=int, default=3,
                    help="timed single iterations per algorithm (min kept)")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="corpus scale factor (CI smoke uses < 1)")
    ap.add_argument("--preset", choices=sorted(PRESETS), default="small",
                    help="corpus preset (medium = the scaling workload)")
    ap.add_argument("--execution", choices=("serial", "process"),
                    default="serial",
                    help="measure culda/ldastar on the process engine, "
                         "paired with a serial run (process_speedup)")
    ap.add_argument("--num-workers", dest="num_workers", type=int,
                    default=None,
                    help="OS worker processes for --execution process")
    ap.add_argument("--sync-mode", dest="sync_mode",
                    choices=("barrier", "prereduce", "overlap"),
                    default="barrier",
                    help="phi sync mode of the --execution process "
                         "measurements (ldastar maps prereduce to its "
                         "always-pre-reduced barrier)")
    ap.add_argument("--inference-workers", dest="inference_workers",
                    type=int, default=None,
                    help="also measure the inference section with an "
                         "N-worker pool (equality asserted)")
    ap.add_argument("--scaling-sweep", action="store_true",
                    help="record the culda 4-device x {1,2,4}-worker "
                         "scaling curve, the sync-mode comparison + "
                         "master-merge microbenchmark, and the inference "
                         "worker-scaling curve on the medium preset")
    ap.add_argument("--no-inference", dest="inference", action="store_false",
                    help="skip the fold-in inference throughput section "
                         "(sequential vs batched, medium preset)")
    ap.add_argument("--serving", action="store_true",
                    help="open-loop load generator against a live serving "
                         "tier: saturating arrivals from 8 concurrent "
                         "clients, throughput + p50/p99 latency at "
                         "{1,2} inference workers")
    ap.add_argument("--store", action="store_true",
                    help="measure the durable corpus store: ingest "
                         "throughput plus verified-open and streaming "
                         "window-read rates on the medium preset")
    ap.add_argument("--algos", nargs="*", default=None,
                    help="subset of registry names (default: all)")
    ap.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                    help="baseline JSON for before/after speedups "
                         "('' disables)")
    args = ap.parse_args(argv)
    run(
        Path(args.out),
        topics=args.topics,
        warmup=args.warmup,
        iterations=args.iterations,
        scale=args.scale,
        algos=args.algos,
        baseline_path=Path(args.baseline) if args.baseline else None,
        preset=args.preset,
        execution=args.execution,
        num_workers=args.num_workers,
        sync_mode=args.sync_mode,
        scaling_sweep=args.scaling_sweep,
        inference=args.inference,
        inference_workers=args.inference_workers,
        serving=args.serving,
        store=args.store,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
