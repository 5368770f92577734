"""Training workloads: ``train_serial`` and ``train_store_parallel``.

Both train culda through the registry on a seeded synthetic corpus and
time one ``fit`` call that covers iterations 1..N of a cold chain.
Iteration 0 belongs to set-up: it carries first-touch workspace
allocation and, in process mode, the lazy worker spawn.
"""

from __future__ import annotations

import math
import multiprocessing
from contextlib import nullcontext
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from perfbench.common import (
    OUT,
    SETUP_REPEATS,
    Outcome,
    median,
    peak_rss_mb,
    percentile,
    sha256_of,
    tail_percentile,
    workdir,
)
from perfbench.spans import Tracer, ledger_lines


@dataclass(frozen=True)
class TrainSpec:
    """One training workload: corpus shape and trainer configuration."""

    name: str
    num_docs: int
    num_words: int
    mean_doc_len: float
    doc_len_sigma: float
    topics: int = 256
    gpus: int = 1
    platform: str | None = None
    execution: str = "serial"
    num_workers: int | None = None
    sync_mode: str = "barrier"
    likelihood_every: int = 1
    #: timed iterations per second of ``--seconds`` (sized on a 2-CPU host)
    iterations_per_second: float = 1.0
    #: ingest through ``repro ingest``'s store and train from disk
    store: bool = False
    docs_per_shard: int = 512

    def iterations(self, seconds: float) -> int:
        return max(1, round(seconds * self.iterations_per_second))

    def trainer_kwargs(self, seed: int) -> dict:
        kwargs = {"topics": self.topics, "seed": seed, "gpus": self.gpus,
                  "execution": self.execution, "sync_mode": self.sync_mode}
        if self.platform is not None:
            kwargs["platform"] = self.platform
        if self.num_workers is not None:
            kwargs["num_workers"] = self.num_workers
        return kwargs


#: NYTimes-shaped bench corpus at half scale (~140k tokens).  Long
#: documents keep theta dense, so sampling dominates the wall time.
TRAIN_SERIAL = TrainSpec(
    name="train_serial", num_docs=600, num_words=2000, mean_doc_len=240.0,
    doc_len_sigma=0.7, likelihood_every=10, iterations_per_second=1.5,
)

#: PubMed-shaped bench corpus (~288k tokens) through ingest -> store ->
#: 4 simulated Pascal devices on 2 OS workers with the overlapped sync.
TRAIN_STORE_PARALLEL = TrainSpec(
    name="train_store_parallel", num_docs=3600, num_words=2400,
    mean_doc_len=80.0, doc_len_sigma=0.5, gpus=4, platform="Pascal",
    execution="process", num_workers=2, sync_mode="overlap",
    likelihood_every=1, iterations_per_second=2.0, store=True,
)


def toy(spec: TrainSpec) -> TrainSpec:
    """The same workload at smoke-test scale."""
    return replace(spec, num_docs=48, num_words=120, mean_doc_len=30.0,
                   topics=16, docs_per_shard=16)


class _StampedHistory(list):
    """The trainer's record list, noting when each iteration's record lands."""

    def __init__(self, records):
        super().__init__(records)
        self.stamps: list[float] = []

    def append(self, record) -> None:
        self.stamps.append(perf_counter())
        super().append(record)


def _patch_layers(tracer: Tracer) -> None:
    """Wrap the layers' public entry points the trainer calls."""
    import repro.core.model as model_mod
    import repro.core.scheduler as scheduler_mod
    import repro.core.trainer as trainer_mod
    import repro.corpus.store as store_mod
    import repro.parallel.engine as engine_mod

    tracer.patch(scheduler_mod, "sample_chunk", "core.sample_chunk")
    tracer.patch(scheduler_mod, "apply_phi_update", "core.apply_phi_update")
    tracer.patch(scheduler_mod, "charge_chunk_costs", "gpusim.accounting")
    tracer.patch(model_mod.ChunkState, "rebuild_theta", "core.rebuild_theta")
    tracer.patch(trainer_mod, "run_iteration", "core.scheduler")
    tracer.patch(trainer_mod, "synchronize", "core.synchronize")
    tracer.patch(trainer_mod, "synchronize_prereduced", "core.sync.merge")
    tracer.patch(trainer_mod, "log_likelihood_per_token", "core.likelihood")
    tracer.patch(trainer_mod, "log_likelihood_from_terms", "core.likelihood")
    tracer.patch(trainer_mod, "replay_parallel_accounting", "gpusim.accounting")
    tracer.patch(trainer_mod, "simulate_phi_sync", "gpusim.accounting")
    tracer.patch(engine_mod.ProcessEngine, "dispatch_iteration", "parallel.dispatch")
    tracer.patch(engine_mod.ProcessEngine, "collect_iteration", "parallel.collect_wait")
    tracer.patch(store_mod.CorpusStore, "open", "corpus.store_read")
    tracer.patch(store_mod.CorpusStore, "doc_offsets", "corpus.store_read")
    tracer.patch(store_mod.CorpusStore, "subset", "corpus.store_read")
    # The sliceable ``CorpusStore.word_ids`` view.
    tracer.patch(store_mod._StoreTokenView, "__getitem__", "corpus.store_read")


class _Inputs:
    """One workload run: generated inputs plus the trainers built on them."""

    def __init__(self, spec: TrainSpec, seed: int, work):
        from repro.corpus.synthetic import SyntheticSpec, generate_synthetic_corpus

        self.spec, self.seed, self.work = spec, seed, work
        shape = SyntheticSpec(
            name=spec.name, num_docs=spec.num_docs, num_words=spec.num_words,
            mean_doc_len=spec.mean_doc_len, doc_len_sigma=spec.doc_len_sigma,
            num_topics=64,
        )
        self.corpus = generate_synthetic_corpus(
            shape, seed=seed, with_vocabulary=spec.store
        )
        if spec.store:
            from repro.corpus.io import write_uci_bow

            self.docword = work / "docword.txt"
            self.vocab = work / "vocab.txt"
            write_uci_bow(self.corpus, self.docword, self.vocab)
            self.digest = sha256_of(self.docword.read_bytes())
        else:
            self.digest = sha256_of(
                self.corpus.doc_offsets.tobytes(), self.corpus.word_ids.tobytes()
            )

    def set_up(self, tag: str, tracer: Tracer | None = None):
        """Ingest (store workload), build the trainer, run iteration 0.

        Returns ``(trainer, seconds)``.
        """
        import repro

        def span(name):
            return tracer.span(name) if tracer is not None else nullcontext()

        t0 = perf_counter()
        source = self.corpus
        if self.spec.store:
            from repro.corpus.store import CorpusStore, ingest_uci_bow

            store_dir = self.work / f"store-{tag}"
            with span("corpus.ingest"):
                ingest_uci_bow(self.docword, store_dir, vocab_path=self.vocab,
                               docs_per_shard=self.spec.docs_per_shard)
            source = CorpusStore.open(store_dir)
        trainer = repro.create_trainer(
            "culda", source, **self.spec.trainer_kwargs(self.seed)
        )
        try:
            with span("parallel.iteration0"):
                trainer.fit(1, likelihood_every=self.spec.likelihood_every)
        except BaseException:
            trainer.close()
            raise
        return trainer, perf_counter() - t0

    def chain(self, trainer, iterations: int):
        """Time iterations 1..N in one call; returns (wall, periods, records)."""
        stamped = _StampedHistory(trainer.inner.history)
        trainer.inner.history = stamped
        t0 = perf_counter()
        result = trainer.fit(iterations, likelihood_every=self.spec.likelihood_every)
        wall = perf_counter() - t0
        periods = np.diff(np.asarray([t0, *stamped.stamps[-iterations:]]))
        return wall, periods, result.records


def _check(out: Outcome, trainer, inputs: _Inputs, ll: float) -> None:
    """The trainer's exported model must be a valid, conserving artifact."""
    try:
        model = trainer.export_model()
    except ValueError as exc:
        out.fail(f"export_model rejected the trained state: {exc}")
    else:
        if model.num_tokens != inputs.corpus.num_tokens:
            out.fail(
                f"model holds {model.num_tokens} tokens, corpus has "
                f"{inputs.corpus.num_tokens}"
            )
    if not math.isfinite(ll):
        out.fail(f"log-likelihood per token is not finite: {ll}")
    if trainer.recovery_events:
        out.fail(f"engine recovered from faults: {trainer.recovery_events}")


def _final_ll(trainer, records) -> float:
    ll = records[-1].log_likelihood_per_token
    if ll is None:
        from repro.core.likelihood import log_likelihood_per_token

        ll = log_likelihood_per_token(trainer.state)
    return float(ll)


def _program_rss_mb() -> float:
    """This process plus any worker processes it currently runs."""
    return peak_rss_mb() + sum(
        peak_rss_mb(p.pid) for p in multiprocessing.active_children()
    )


def run(spec: TrainSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    iterations = spec.iterations(seconds)
    with workdir() as work:
        inputs = _Inputs(spec, seed, work)
        tokens = inputs.corpus.num_tokens
        out.notes.append(
            f"inputs sha256 {inputs.digest} ({inputs.corpus.num_docs} docs, "
            f"{tokens} tokens, {iterations} timed iterations)"
        )
        setups = []
        trainer = None
        try:
            for rep in range(SETUP_REPEATS):
                if trainer is not None:
                    # Release the previous set-up before the next one
                    # allocates, so only one trainer is ever resident.
                    trainer.close()
                    trainer = None
                trainer, secs = inputs.set_up(str(rep))
                setups.append(secs)
            wall, periods, records = inputs.chain(trainer, iterations)
            ll = _final_ll(trainer, records)
            rss = _program_rss_mb()
            _check(out, trainer, inputs, ll)
        finally:
            if trainer is not None:
                trainer.close()
        out.attempted = iterations
        q = tail_percentile(iterations)
        out.metrics = {
            "tokens_per_s": (tokens * iterations / wall, "tok/s"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (rss, "MB"),
            "ll_per_token": (ll, "nats/token"),
            "p50_ms": (median(periods) * 1e3, "ms"),
            "tail_ms": (percentile(periods, q) * 1e3, "ms"),
        }
        out.notes.append(
            f"iteration period p50 and p{q} over {iterations} iterations; "
            f"setup_s is the median of {SETUP_REPEATS} set-ups"
        )
        if trace:
            _traced(out, inputs, iterations, wall)
    return out


def _traced(out: Outcome, inputs: _Inputs, iterations: int, untraced_wall: float) -> None:
    """Repeat set-up and chain with every layer wrapped; fill ``out.layers``."""
    tracer = Tracer()
    _patch_layers(tracer)
    trainer = None
    try:
        with tracer.span("setup") as setup_root:
            trainer, _ = inputs.set_up("traced", tracer)
        with tracer.span("timed") as timed_root:
            wall, _, records = inputs.chain(trainer, iterations)
        workspaces = trainer.workspace_stats()
        breakdown = trainer.kernel_breakdown()
    finally:
        tracer.restore()
        if trainer is not None:
            trainer.close()
    timed = tracer.self_times(timed_root)
    setup = tracer.self_times(setup_root)
    root_wall = tracer.duration(timed_root)
    coverage = 1.0 - timed["timed"][0] / root_wall
    tokens = inputs.corpus.num_tokens

    def s(name, times=timed):
        return times.get(name, (0.0, 0))

    iteration0 = next(
        (tracer.duration(i) for i, sp in enumerate(tracer.spans)
         if sp[0] == "parallel.iteration0"), 0.0,
    )
    out.layers = {
        "core.sample_chunk.s": (s("core.sample_chunk")[0], "s"),
        "core.sample_chunk.calls": (s("core.sample_chunk")[1], "count"),
        "core.apply_phi_update.s": (s("core.apply_phi_update")[0], "s"),
        "core.rebuild_theta.s": (s("core.rebuild_theta")[0], "s"),
        "core.synchronize.s": (s("core.synchronize")[0], "s"),
        "core.likelihood.s": (s("core.likelihood")[0], "s"),
        "core.sum_kd": (sum(round(r.mean_kd * tokens) for r in records), "count"),
        "core.changed_tokens": (
            sum(round(r.changed_fraction * tokens) for r in records), "count"),
        "core.p1_draws": (sum(round(r.p1_fraction * tokens) for r in records), "count"),
        "perf.workspace.nbytes": (sum(w["nbytes"] for w in workspaces), "bytes"),
        "perf.workspace.misses": (sum(w["misses"] for w in workspaces), "count"),
        "gpusim.accounting.s": (s("gpusim.accounting")[0], "s"),
        "parallel.dispatch.s": (s("parallel.dispatch")[0], "s"),
        "parallel.collect_wait.s": (s("parallel.collect_wait")[0], "s"),
        "core.sync.merge.s": (s("core.sync.merge")[0], "s"),
        "parallel.iteration0.s": (iteration0, "s"),
        "parallel.recoveries": (len(trainer.recovery_events), "count"),
        "corpus.ingest.s": (s("corpus.ingest", setup)[0], "s"),
        "corpus.store_read.s": (s("corpus.store_read", setup)[0], "s"),
        "corpus.store_read.calls": (s("corpus.store_read", setup)[1], "count"),
        "trace.coverage_pct": (100.0 * coverage, "%"),
        "trace.overhead_pct": (100.0 * (wall - untraced_wall) / untraced_wall, "%"),
    }
    path = OUT / "traces" / f"{inputs.spec.name}-seed{inputs.seed}.json"
    tracer.export_chrome(path, inputs.spec.name)
    out.notes.append(
        f"traced chain: {wall:.3f} s vs {untraced_wall:.3f} s untraced; "
        f"named layers cover {100 * coverage:.1f}% of timed wall"
    )
    out.notes.append("layer self time over the timed chain (host wall):")
    out.notes.extend(ledger_lines(timed, root_wall))
    if inputs.spec.execution == "serial":
        out.notes.extend(_table5_lines(timed, breakdown))
    out.notes.append(f"chrome trace written to {path.relative_to(OUT.parent)}")


def _table5_lines(timed, breakdown) -> list[str]:
    """Measured kernel shares beside the simulated Table-5 shares."""
    host = {
        "sampling": timed.get("core.sample_chunk", (0.0, 0))[0],
        "update_phi": timed.get("core.apply_phi_update", (0.0, 0))[0],
        "update_theta": timed.get("core.rebuild_theta", (0.0, 0))[0],
    }
    host_total = sum(host.values()) or 1.0
    sim_total = sum(breakdown.get(k, 0.0) for k in host) or 1.0
    lines = [f"  {'kernel':<14} {'host wall':>10} {'simulated':>10}"]
    for kernel, secs in host.items():
        lines.append(
            f"  {kernel:<14} {100 * secs / host_total:9.1f}% "
            f"{100 * breakdown.get(kernel, 0.0) / sim_total:9.1f}%"
        )
    return ["kernel shares (host wall: timed chain; simulated: whole run, Table 5):",
            *lines]
