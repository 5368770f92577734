"""The ``serve`` workload: ``repro serve`` in its own process, driven closed-loop.

The benchmark process is the load generator.  Phase ``unloaded`` keeps
one request in flight on one connection, so every request rides a batch
of one.  Phase ``saturated`` keeps a fixed window of requests
outstanding over two connections, so requests coalesce into wide
batches.  Both walk a fixed, seeded request list of held-out documents.
"""

from __future__ import annotations

import asyncio
import math
import select
import subprocess
import sys
from dataclasses import dataclass, field, replace
from statistics import NormalDist
from time import perf_counter

import numpy as np

from perfbench.common import (
    OUT,
    ROOT,
    SETUP_REPEATS,
    Outcome,
    median,
    peak_rss_mb,
    percentile,
    program_env,
    sha256_of,
    tail_percentile,
    workdir,
)
from perfbench.spans import Tracer

HOST = "127.0.0.1"
#: Seconds a server may take to print its ready line.
READY_TIMEOUT_S = 60.0
#: Replies per phase compared bit for bit against in-process inference.
VERIFY_SAMPLES = 8


@dataclass(frozen=True)
class ServeSpec:
    num_docs: int = 3600
    num_words: int = 2400
    mean_doc_len: float = 80.0
    doc_len_sigma: float = 0.5
    topics: int = 256
    heldout: int = 512
    docs_per_request: int = 4
    #: serial culda iterations that train the served artifact (untimed)
    train_iterations: int = 4
    #: requests per second of ``--seconds``, per phase (sized on a 2-CPU host)
    unloaded_per_second: float = 6.0
    saturated_per_second: float = 16.0
    window: int = 32
    connections: int = 2
    #: each phase runs in this many slices, interleaved with the other's
    rounds: int = 2
    #: the server's default fold-in schedule, reproduced in-process
    sweeps: int = 20
    burn_in: int = 8
    transform_1doc_calls: int = 16
    transform_wide_docs: int = 256


SERVE = ServeSpec()


def toy(spec: ServeSpec) -> ServeSpec:
    """The same workload at smoke-test scale."""
    return replace(spec, num_docs=120, num_words=150, mean_doc_len=30.0,
                   topics=16, heldout=24, train_iterations=2, rounds=2,
                   unloaded_per_second=6.0, saturated_per_second=8.0,
                   window=8, transform_1doc_calls=4, transform_wide_docs=24)


@dataclass(frozen=True)
class Request:
    doc_ids: tuple[int, ...]
    seed: int
    docs: list[list[int]]
    tokens: int

    def frame(self, rid: int) -> dict:
        return {"op": "infer", "id": rid, "docs": self.docs, "seed": self.seed}


class _Inputs:
    """Corpus, held-out split and request lists, all from one seed."""

    def __init__(self, spec: ServeSpec, seed: int, seconds: float):
        from repro.corpus.document import Corpus
        from repro.corpus.synthetic import SyntheticSpec, generate_synthetic_corpus

        corpus = generate_synthetic_corpus(
            SyntheticSpec(name="serve", num_docs=spec.num_docs,
                          num_words=spec.num_words, mean_doc_len=spec.mean_doc_len,
                          doc_len_sigma=spec.doc_len_sigma, num_topics=64),
            seed=seed,
        )
        rng = np.random.default_rng([seed, 7])
        order = rng.permutation(corpus.num_docs)
        held = np.sort(order[: spec.heldout])
        kept = np.sort(order[spec.heldout:])
        offsets, words = corpus.doc_offsets, corpus.word_ids

        def doc(d):
            return words[offsets[d]: offsets[d + 1]]

        lengths = np.diff(offsets)[kept]
        train_offsets = np.zeros(kept.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=train_offsets[1:])
        self.train = Corpus(
            train_offsets, np.concatenate([doc(d) for d in kept]), corpus.num_words
        )
        self.docs = [doc(d).astype(np.int64) for d in held]
        self.first = self._request(tuple(range(spec.docs_per_request)), 0)
        self.unloaded = self._sized(
            rng, spec, round(seconds * spec.unloaded_per_second))
        self.saturated = [
            self._request(
                rng.choice(len(self.docs), size=spec.docs_per_request, replace=False),
                rng.integers(2**31),
            )
            for _ in range(max(1, round(seconds * spec.saturated_per_second)))
        ]
        self.digest = sha256_of(
            offsets.tobytes(), words.tobytes(), held.tobytes(),
            repr([(r.doc_ids, r.seed) for r in self.unloaded + self.saturated]).encode(),
        )

    def _request(self, doc_ids, seed) -> Request:
        docs = [self.docs[i] for i in doc_ids]
        return Request(tuple(int(i) for i in doc_ids), int(seed),
                       [d.tolist() for d in docs], int(sum(d.size for d in docs)))

    def _sized(self, rng, spec: ServeSpec, n: int) -> list[Request]:
        """Requests whose longest document follows fixed target lengths.

        An unloaded request costs in proportion to its longest document.
        Request j's longest document is the held-out document nearest in
        length to the j-th of ``n`` evenly spaced quantiles of the corpus
        shape's length distribution, over its longest ``1/docs_per_request``
        share; the others come from the shorter documents.  Every seed's
        list then has nearly the same costs: a seed changes which
        documents are asked for, not how expensive the list is.
        """
        per = spec.docs_per_request
        lengths = np.array([d.size for d in self.docs])
        by_length = np.argsort(-lengths, kind="stable")
        shorter = by_length[len(self.docs) // per:]
        sigma = spec.doc_len_sigma
        mu = math.log(spec.mean_doc_len) - 0.5 * sigma * sigma
        n = max(1, n)
        requests = []
        # Shuffled, so the largest requests spread over every slice of the
        # phase instead of all meeting the host in the first one.
        for j in rng.permutation(n):
            q = 1.0 - (j + 0.5) / (n * per)
            target = math.exp(mu + sigma * NormalDist().inv_cdf(q))
            top = int(np.argmin(np.abs(lengths - target)))
            others = rng.choice(shorter[shorter != top], size=per - 1, replace=False)
            requests.append(self._request([top, *others], rng.integers(2**31)))
        return requests


class _Server:
    """One ``repro serve`` process, from launch to its ready line."""

    def __init__(self, model_path, log_path):
        t0 = perf_counter()
        self.log = open(log_path, "w")  # noqa: SIM115 - closed in stop()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--model", str(model_path),
             "--host", HOST, "--port", "0"],
            stdout=subprocess.PIPE, stderr=self.log, text=True,
            env=program_env(), cwd=ROOT,
        )
        try:
            self.port = self._await_ready(t0)
        except BaseException:
            self.stop()
            raise
        self.ready_s = perf_counter() - t0

    def _await_ready(self, t0: float) -> int:
        while True:
            left = READY_TIMEOUT_S - (perf_counter() - t0)
            ready, _, _ = select.select([self.proc.stdout], [], [], max(left, 0))
            if not ready:
                raise RuntimeError("server printed no ready line in time")
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited with {self.proc.wait()}")
            if line.startswith("serving "):
                return int(line.rsplit(":", 1)[1])

    def stop(self) -> None:
        """SIGTERM drains the server gracefully; wait until it has exited."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        self.log.close()


@dataclass
class Phase:
    """Replies of one closed-loop phase, run as one or more slices."""

    #: request index -> (sent, received, reply)
    results: dict = field(default_factory=dict)
    #: (start, end) of each slice
    slices: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(end - start for start, end in self.slices)

    def ok(self):
        return [self.results[rid] for rid in sorted(self.results)
                if self.results[rid][2].get("type") == "result"]


async def _closed_loop(port: int, requests: list[Request], ids, connections: int,
                       window: int, phase: Phase) -> None:
    """Keep ``window`` of the requests ``ids`` outstanding until all are answered."""
    from repro.serving.protocol import read_frame, write_frame

    pending = list(ids)[::-1]

    async def connection(outstanding: int) -> None:
        reader, writer = await asyncio.open_connection(HOST, port)
        sent: dict[int, float] = {}

        async def send_next() -> int:
            if not pending:
                return 0
            rid = pending.pop()
            sent[rid] = perf_counter()
            await write_frame(writer, requests[rid].frame(rid))
            return 1

        try:
            inflight = 0
            for _ in range(outstanding):
                inflight += await send_next()
            while inflight:
                reply = await read_frame(reader)
                received = perf_counter()
                if reply is None:
                    raise ConnectionError("server closed the connection")
                rid = reply.get("id")
                if rid not in sent:
                    raise RuntimeError(f"reply to no request: {reply!r}")
                phase.results[rid] = (sent.pop(rid), received, reply)
                inflight -= 1
                inflight += await send_next()
        finally:
            writer.close()
            await writer.wait_closed()

    per = max(1, window // connections)
    start = perf_counter()
    await asyncio.gather(*(connection(per) for _ in range(connections)))
    phase.slices.append((start, perf_counter()))


def _single(port: int, request: Request) -> Phase:
    phase = Phase()
    asyncio.run(_closed_loop(port, [request], [0], 1, 1, phase))
    return phase


def _phases(spec: ServeSpec, port: int, inputs: _Inputs) -> tuple[Phase, Phase]:
    """Both phases, interleaved in ``spec.rounds`` slices each.

    Interleaving spreads each phase over the whole run, so a slow spell
    of the host weighs on both phases alike instead of on one.
    """
    unloaded, saturated = Phase(), Phase()
    u_ids = np.array_split(np.arange(len(inputs.unloaded)), spec.rounds)
    s_ids = np.array_split(np.arange(len(inputs.saturated)), spec.rounds)
    for u, s in zip(u_ids, s_ids):
        asyncio.run(_closed_loop(port, inputs.unloaded, u.tolist(), 1, 1, unloaded))
        asyncio.run(_closed_loop(port, inputs.saturated, s.tolist(),
                                 spec.connections, spec.window, saturated))
    return unloaded, saturated


async def _stats(port: int) -> dict:
    from repro.serving.protocol import read_frame, write_frame

    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        await write_frame(writer, {"op": "stats", "id": "stats"})
        return await read_frame(reader)
    finally:
        writer.close()
        await writer.wait_closed()


def _train_artifact(spec: ServeSpec, inputs: _Inputs, seed: int, path) -> None:
    import repro

    trainer = repro.create_trainer("culda", inputs.train, topics=spec.topics, seed=seed)
    trainer.fit(spec.train_iterations, likelihood_every=0)
    trainer.export_model().save(path)


def _verify(out: Outcome, session, label: str, requests, phase: Phase) -> None:
    """Every reply must be a result; a fixed sample must match bit for bit."""
    for rid, (_, _, reply) in sorted(phase.results.items()):
        if reply.get("type") != "result":
            out.fail(f"{label} request {rid}: unexpected reply {reply.get('type')!r} "
                     f"({reply.get('error')})")
    n = len(requests)
    for rid in sorted(set(np.linspace(0, n - 1, min(n, VERIFY_SAMPLES)).astype(int))):
        reply = phase.results[rid][2]
        if reply.get("type") != "result":
            continue
        request = requests[rid]
        expected = session.transform(
            [np.asarray(d, dtype=np.int64) for d in request.docs], seed=request.seed
        )
        if not np.array_equal(np.asarray(reply["theta"], dtype=np.float64), expected):
            out.fail(f"{label} request {rid}: theta differs from in-process inference")


def _heldout_ll(model, requests, phase: Phase) -> float:
    """Per-token log-likelihood of the folded-in documents under their theta."""
    p_star = model.word_given_topic()
    total, tokens = 0.0, 0
    for rid, (_, _, reply) in sorted(phase.results.items()):
        if reply.get("type") != "result":
            continue
        request = requests[rid]
        theta = np.asarray(reply["theta"], dtype=np.float64)
        for row, words in zip(theta, request.docs):
            total += float(np.log(row @ p_star[:, words]).sum())
            tokens += len(words)
    return total / tokens if tokens else float("nan")


def _ms(samples, q) -> float:
    return percentile(samples, q) * 1e3 if len(samples) else 0.0


def run(spec: ServeSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.model import InferenceSession, TopicModel

    out = Outcome()
    inputs = _Inputs(spec, seed, seconds)
    out.notes.append(
        f"inputs sha256 {inputs.digest} ({inputs.train.num_docs} training docs, "
        f"{len(inputs.docs)} held out, {len(inputs.unloaded)} unloaded + "
        f"{len(inputs.saturated)} saturated requests)"
    )
    with workdir() as work:
        model_path = work / "model.npz"
        _train_artifact(spec, inputs, seed, model_path)
        setups, readies = [], []
        server = None
        first_replies = []
        try:
            for rep in range(SETUP_REPEATS):
                if server is not None:
                    server.stop()
                t0 = perf_counter()
                server = _Server(model_path, work / f"server-{rep}.log")
                first = _single(server.port, inputs.first)
                setups.append(perf_counter() - t0)
                readies.append(server.ready_s)
                first_replies.append(first)
            unloaded, saturated = _phases(spec, server.port, inputs)
            stats = asyncio.run(_stats(server.port))
            rss = peak_rss_mb(server.proc.pid)
            traced = _traced_phases(spec, server.port, inputs) if trace else None
        finally:
            if server is not None:
                server.stop()

        model = TopicModel.load(model_path)
        session = InferenceSession(model, num_sweeps=spec.sweeps, burn_in=spec.burn_in)
        for first in first_replies:
            _verify(out, session, "first", [inputs.first], first)
        _verify(out, session, "unloaded", inputs.unloaded, unloaded)
        _verify(out, session, "saturated", inputs.saturated, saturated)
        out.attempted = (len(first_replies) + len(unloaded.results)
                         + len(saturated.results))

        latencies = [r - s for s, r, _ in unloaded.ok()]
        q = tail_percentile(len(latencies))
        folded = sum(inputs.saturated[rid].tokens
                     for rid, (_, _, rep) in saturated.results.items()
                     if rep.get("type") == "result")
        out.metrics = {
            "tokens_per_s": (folded / saturated.wall, "tok/s"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (rss, "MB"),
            "ll_per_token": (_heldout_ll(model, inputs.unloaded, unloaded), "nats/token"),
            "p50_ms": (_ms(latencies, 50), "ms"),
            "tail_ms": (_ms(latencies, q), "ms"),
        }
        out.notes.append(
            f"unloaded latency p50 and p{q} over {len(latencies)} requests; "
            f"saturated: {len(saturated.results)} requests in "
            f"{saturated.wall:.2f} s; setup_s is the median of {SETUP_REPEATS} launches"
        )
        if trace:
            _layers(out, spec, inputs, session, readies, unloaded, saturated,
                    stats, traced, seed)
    return out


def _traced_phases(spec: ServeSpec, port: int, inputs: _Inputs):
    """Both phases again, recording one span per slice and per request."""
    tracer = Tracer()
    phases = dict(zip(("unloaded", "saturated"), _phases(spec, port, inputs)))
    roots = {}
    for name, phase in phases.items():
        roots[name] = []
        for start, end in phase.slices:
            tracer.record(f"serve.{name}", start, end, None)
            roots[name].append(len(tracer.spans) - 1)
        for rid, (sent, received, reply) in sorted(phase.results.items()):
            root = next(i for i, (a, b) in zip(roots[name], phase.slices)
                        if a <= sent <= b)
            tracer.record(
                "serving.request", sent, received, root, request=rid, phase=name,
                queue_wait_ms=1e3 * reply.get("queue_wait_s", 0.0),
                service_ms=1e3 * reply.get("service_s", 0.0),
                coalesced=reply.get("coalesced_requests", 0),
            )
    return tracer, phases, roots


def _layers(out: Outcome, spec: ServeSpec, inputs: _Inputs, session, readies,
            unloaded: Phase, saturated: Phase, stats: dict, traced, seed) -> None:
    """Per-layer metrics from reply fields, the stats op and in-process calls."""
    service = [rep["service_s"] for _, _, rep in unloaded.ok()]
    overhead = [(r - s) - rep["queue_wait_s"] - rep["service_s"]
                for s, r, rep in unloaded.ok()]
    queue_wait = [rep["queue_wait_s"] for _, _, rep in saturated.ok()]
    batch = [rep["coalesced_requests"] for _, _, rep in saturated.ok()]
    q_u, q_s = tail_percentile(len(service)), tail_percentile(len(queue_wait))

    one = []
    for d in range(min(spec.transform_1doc_calls, len(inputs.docs))):
        t0 = perf_counter()
        session.transform([inputs.docs[d]], seed=d)
        one.append(perf_counter() - t0)
    wide_docs = inputs.docs[: spec.transform_wide_docs]
    wide = []
    for rep in range(2):
        t0 = perf_counter()
        session.transform(wide_docs, seed=rep)
        wide.append(perf_counter() - t0)

    tracer, phases, roots = traced
    phase = phases["unloaded"]
    idle = sum(tracer.self_times(root)["serve.unloaded"][0] for root in roots["unloaded"])
    coverage = 1.0 - idle / phase.wall
    latency = stats["latency"]
    out.layers = {
        "model.service_ms.p50": (_ms(service, 50), "ms"),
        "model.service_ms.tail": (_ms(service, q_u), "ms"),
        "serving.queue_wait_ms.p50": (_ms(queue_wait, 50), "ms"),
        "serving.queue_wait_ms.tail": (_ms(queue_wait, q_s), "ms"),
        "serving.batch_requests.mean": (float(np.mean(batch)) if batch else 0.0,
                                        "requests"),
        "serving.overhead_ms.p50": (_ms(overhead, 50), "ms"),
        "model.ready_s": (median(readies), "s"),
        "model.transform_1doc_ms": (median(one) * 1e3, "ms"),
        "model.transform_256doc_ms": (median(wide) * 1e3, "ms"),
        "serving.busy": (latency["busy_rejected"], "count"),
        "serving.errors": (latency["errors"], "count"),
        "serving.shed": (latency["shed_expired"], "count"),
        "trace.coverage_pct": (100.0 * coverage, "%"),
        "trace.overhead_pct": (100.0 * (phase.wall - unloaded.wall) / unloaded.wall, "%"),
    }
    path = OUT / "traces" / f"serve-seed{seed}.json"
    tracer.export_chrome(path, "serve load generator")
    out.notes.append(
        f"unloaded: service p50 {_ms(service, 50):.1f} ms, client overhead p50 "
        f"{_ms(overhead, 50):.2f} ms; saturated: mean batch "
        f"{out.layers['serving.batch_requests.mean'][0]:.1f} requests, queue wait "
        f"p50 {_ms(queue_wait, 50):.1f} ms"
    )
    out.notes.append(f"chrome trace written to {path.relative_to(ROOT)}")
