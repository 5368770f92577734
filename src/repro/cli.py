"""Command-line interface: train, inspect, infer with, and evaluate LDA models.

    python -m repro train --algo warplda --topics 64 --iterations 20 \
        --output model.npz
    python -m repro topics --model model.npz --vocab vocab.txt --top 10
    python -m repro infer --model model.npz --docword new_docs.txt \
        --output theta.npz
    python -m repro evaluate --model model.npz --docword test_docs.txt
    python -m repro serve --model model.npz --port 7070
    python -m repro query --host 127.0.0.1 --port 7070 --docword new_docs.txt
    python -m repro ingest --docword docword.txt --store corpus_store/
    python -m repro corpus verify corpus_store/ --quarantine
    python -m repro train --algo culda --corpus-store corpus_store/
    python -m repro verify-artifact model.npz checkpoint.npz store/manifest.json
    python -m repro algorithms
    python -m repro check src benchmarks examples

Every trainer is constructed through the unified registry
(:func:`repro.api.create_trainer`), so ``--algo`` accepts any registered
algorithm name and ``train --output`` exports a
:class:`~repro.model.TopicModel` artifact for **any** of them;
``infer``/``evaluate`` serve that artifact through the batched
:class:`~repro.model.InferenceSession`.  Kept dependency-free beyond the
library itself; every command prints the same metrics the paper reports.

Module top imports only what :func:`build_parser` needs plus the light
helpers the handlers share (corpus loading, table rendering).  Each
handler imports the stack it runs, so ``repro serve`` starts without
scipy and the trainers, and ``repro train`` without the serving tier.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING

from repro.analysis.reporting import render_table
from repro.corpus.io import read_uci_bow
from repro.corpus.stats import corpus_stats
from repro.corpus.synthetic import (
    NYTIMES_LIKE,
    PUBMED_LIKE,
    generate_synthetic_corpus,
    small_spec,
)

if TYPE_CHECKING:
    from repro.corpus.document import Corpus
    from repro.model import TopicModel

PRESETS = {"nytimes": NYTIMES_LIKE, "pubmed": PUBMED_LIKE}


def _load_corpus(args: argparse.Namespace) -> Corpus:
    if args.docword:
        return read_uci_bow(args.docword, args.vocab)
    if args.preset:
        spec = PRESETS[args.preset].scaled(args.scale)
        return generate_synthetic_corpus(spec, seed=args.seed)
    return generate_synthetic_corpus(small_spec(), seed=args.seed)


#: Defaults for flags only some algorithms accept — the single source for
#: both the argparse definitions and the "flag ignored" warning below.
_ALGO_FLAG_DEFAULTS = {
    "gpus": 1,
    "platform": "Volta",
    "chunks_per_gpu": 1,
    "compute_dtype": "float64",
    "execution": "serial",
    "num_workers": None,
    "sync_mode": "barrier",
    "worker_affinity": None,
}


def _parse_affinity(text: str | None) -> tuple[int, ...] | None:
    """``"0,2,4"`` -> ``(0, 2, 4)``; empty/None -> ``None``."""
    if not text:
        return None
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(
            f"--affinity expects comma-separated CPU ids, got {text!r}"
        ) from None


def _build_trainer(args: argparse.Namespace, corpus: Corpus):
    """Construct ``args.algo`` through the registry, forwarding only the
    flags that algorithm accepts; warn about flags it would ignore.

    Returns ``(trainer, kwargs)`` — the kwargs are what a resumable
    checkpoint records so ``--resume`` can rebuild the same trainer.
    """
    from repro.api import create_trainer, get_algorithm

    kwargs: dict = {"topics": args.topics, "seed": args.seed}
    accepted = get_algorithm(args.algo).all_options()
    for flag, default in _ALGO_FLAG_DEFAULTS.items():
        value = getattr(args, flag, default)
        if flag == "worker_affinity":
            value = _parse_affinity(value)
        if flag in accepted:
            kwargs[flag] = value
        elif value != default:
            print(
                f"warning: --{flag.replace('_', '-')} is not accepted by "
                f"algorithm {args.algo!r}; ignoring",
                file=sys.stderr,
            )
    return create_trainer(args.algo, corpus, **kwargs), kwargs


def _close_trainer(trainer) -> None:
    """Release process-mode workers/shared memory, if the trainer has any."""
    close = getattr(trainer, "close", None)
    if callable(close):
        close()


def cmd_train(args: argparse.Namespace) -> int:
    from repro.analysis.breakdown import full_fractions
    from repro.api import create_trainer
    from repro.core.model import LdaState
    from repro.core.snapshot import load_checkpoint_full, run_info, save_checkpoint

    if getattr(args, "corpus_store", None):
        if args.algo != "culda":
            # The store view feeds the chunked culda window loader; dense
            # trainers materialise the whole token array and would defeat
            # the point silently.
            print(
                f"error: --corpus-store streams per-iteration windows and "
                f"requires --algo culda; algorithm {args.algo!r} needs an "
                f"in-RAM corpus (--docword/--preset)",
                file=sys.stderr,
            )
            return 2
        from repro.corpus.store import CorpusStore

        corpus = CorpusStore.open(args.corpus_store)
        print(
            f"corpus store: D={corpus.num_docs} V={corpus.num_words} "
            f"T={corpus.num_tokens} shards={corpus.num_shards}"
        )
    else:
        corpus = _load_corpus(args)
        st = corpus_stats(corpus)
        print(f"corpus: D={st.num_docs} V={st.num_words} T={st.num_tokens}")
    likelihood_every = args.likelihood_every
    if args.resume:
        bundle = load_checkpoint_full(args.resume, corpus)
        run = bundle.run
        if run is not None:
            # A checkpoint with a run record rebuilds the recorded
            # trainer; the CLI algorithm/flags are ignored (the run's own
            # configuration wins — it must, for bit-identity).
            trainer = create_trainer(
                run["algorithm"], corpus, **run["trainer_kwargs"]
            )
            kwargs = dict(run["trainer_kwargs"])
            args.algo = run["algorithm"]
            if likelihood_every is None:
                likelihood_every = run.get("likelihood_every")
            trainer.restore(bundle.state, run)
            print(
                f"resumed {run['algorithm']} from {args.resume} at "
                f"iteration {run.get('iterations_done', 0)}"
            )
        else:
            # Saved without a run record (save_checkpoint(run=None)):
            # state only, trainer rebuilt from the CLI flags.
            trainer, kwargs = _build_trainer(args, corpus)
            trainer.restore(bundle.state)
            print(f"resumed {args.algo} from {args.resume} (state only)")
    else:
        trainer, kwargs = _build_trainer(args, corpus)
    if likelihood_every is None:
        likelihood_every = 5
    if args.checkpoint and not isinstance(trainer.state, LdaState):
        # Refuse before training, not after the work is done.  (--output
        # works for every algorithm via export_model.)
        print(
            f"error: --checkpoint needs the chunked LdaState; algorithm "
            f"{args.algo!r} trains a dense model only",
            file=sys.stderr,
        )
        return 2
    try:
        result = trainer.fit(
            args.iterations, likelihood_every=likelihood_every
        )
        ll = result.final_log_likelihood
        ll_txt = (
            f"LL/token {ll}" if ll is not None else
            f"LL/token not computed (--likelihood-every {likelihood_every})"
        )
        print(
            f"done: {result.num_iterations} iterations of {args.algo}, "
            f"{trainer.average_tokens_per_sec() / 1e6:.1f}M tokens/s "
            f"(simulated), {ll_txt}"
        )
        if callable(getattr(trainer, "kernel_breakdown", None)):
            shares = full_fractions(trainer).items()
            rows = [[k, f"{100 * v:.1f}%"] for k, v in shares]
            print(render_table(["kernel", "share"], rows))
        recoveries = getattr(trainer, "recovery_events", ())
        if recoveries:
            print(
                f"recovered from {len(recoveries)} fault(s) during "
                f"training (bit-identical replay)"
            )
        if args.output:
            trainer.export_model().save(args.output)
            print(f"model written to {args.output}")
        if args.checkpoint:
            written = save_checkpoint(
                trainer.state,
                args.checkpoint,
                vocabulary=corpus.vocabulary,
                run=run_info(
                    trainer,
                    algorithm=args.algo,
                    trainer_kwargs=kwargs,
                    likelihood_every=likelihood_every,
                ),
            )
            print(f"checkpoint written to {written}")
    finally:
        _close_trainer(trainer)
    return 0


def _load_vocab_terms(path: str | Path, num_words: int) -> list[str]:
    """Vocabulary lines with **positional** alignment preserved.

    Word id == line number: a blank line mid-file stays in place (it is
    a placeholder term, not a gap to close up), so every later word id
    keeps its term.  Only trailing blank lines (a final newline, padding)
    are dropped.  The only error is a count mismatch.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) != num_words:
        raise ValueError(
            f"vocab has {len(lines)} terms, model expects {num_words}"
        )
    return lines


def cmd_topics(args: argparse.Namespace) -> int:
    from repro.model import TopicModel

    model = TopicModel.load(args.model)
    lineage = model.lineage
    if lineage:
        print(
            f"generation {lineage.get('generation')} "
            f"(parent {lineage.get('parent') or '-'}, "
            f"created {lineage.get('created_at')})"
        )
    terms: list[str] | None = None
    if args.vocab:
        try:
            terms = _load_vocab_terms(args.vocab, model.num_words)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    order = model.topics_by_size()[: args.num_topics]
    rows = []
    for k in order:
        if terms is not None:
            words = [terms[int(i)] for i in model.top_words(int(k), args.top)]
        else:
            words = model.top_terms(int(k), args.top)
        rows.append([int(k), int(model.topic_totals[k]), " ".join(words)])
    print(render_table(["topic", "#tokens", "top words"], rows))
    return 0


def _check_model_covers(model: TopicModel, corpus: Corpus) -> None:
    if corpus.num_words > model.num_words:
        raise ValueError(
            f"corpus vocabulary ({corpus.num_words}) exceeds the trained "
            f"vocabulary ({model.num_words})"
        )


def cmd_infer(args: argparse.Namespace) -> int:
    from repro.core.snapshot import atomic_savez
    from repro.model import InferenceSession, TopicModel

    model = TopicModel.load(args.model)
    corpus = _load_corpus(args)
    _check_model_covers(model, corpus)
    with InferenceSession(
        model,
        num_sweeps=args.sweeps,
        burn_in=args.burn_in,
        batch_docs=args.batch_docs,
        num_workers=args.num_workers,
        worker_affinity=_parse_affinity(args.worker_affinity),
    ) as session:
        theta = session.transform(corpus, seed=args.inference_seed)
        print(
            f"inferred mixtures for {corpus.num_docs} documents "
            f"({corpus.num_tokens} tokens, K={model.num_topics})"
        )
        if args.output:
            atomic_savez(Path(args.output), {"theta": theta})
            print(f"theta written to {args.output}")
        ids, weights = session.top_topics(corpus, n=args.top, theta=theta)
    show = min(corpus.num_docs, args.show_docs)
    rows = []
    for d in range(show):
        mix = " ".join(
            f"{int(t)}:{w:.2f}" for t, w in zip(ids[d], weights[d])
        )
        rows.append([d, corpus.doc_length(d), mix])
    if rows:
        print(render_table(["doc", "#tokens", "top topics"], rows))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.analysis.heldout import document_completion
    from repro.model import InferenceSession, TopicModel

    model = TopicModel.load(args.model)
    corpus = _load_corpus(args)
    _check_model_covers(model, corpus)
    with InferenceSession(
        model,
        num_sweeps=args.sweeps,
        burn_in=args.burn_in,
        num_workers=args.num_workers,
        worker_affinity=_parse_affinity(args.worker_affinity),
    ) as session:
        result = document_completion(
            session,
            corpus,
            observed_fraction=args.observed_fraction,
            num_sweeps=args.sweeps,
            burn_in=args.burn_in,
            seed=args.inference_seed,
        )
    print(
        render_table(
            ["metric", "value"],
            [
                ["documents", result.num_documents],
                ["scored tokens", result.num_scored_tokens],
                [
                    "log predictive / token",
                    f"{result.log_predictive_per_token:.4f}",
                ],
                ["perplexity", f"{result.perplexity:.2f}"],
            ],
            title="Document-completion evaluation",
        )
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the async inference server over one model artifact."""
    import asyncio
    import signal

    from repro.serving import ServingServer

    server = ServingServer(
        args.model,
        host=args.host,
        port=args.port,
        num_sweeps=args.sweeps,
        burn_in=args.burn_in,
        batch_docs=args.batch_docs,
        num_workers=args.num_workers,
        worker_affinity=_parse_affinity(args.worker_affinity),
        max_pending=args.max_pending,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset,
        dispatch_timeout_s=args.dispatch_timeout,
    )

    def on_ready(address) -> None:
        host, port = address
        # One greppable ready line: scripts (and the CI smoke) parse it.
        print(
            f"serving {args.model} generation={server.generation} "
            f"on {host}:{port}",
            flush=True,
        )

    async def run_with_signals() -> None:
        # SIGTERM drains exactly like SIGINT: in-flight requests finish,
        # tracked connections close, exit code 0 — what a supervisor
        # (systemd, Kubernetes) expects from a graceful stop.
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, server.request_shutdown)
            except (NotImplementedError, ValueError):
                # Platform without loop signal support (or non-main
                # thread): SIGINT still arrives as KeyboardInterrupt.
                pass
        await server.run(on_ready)

    try:
        asyncio.run(run_with_signals())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """One client call against a running ``repro serve``."""
    import asyncio

    import numpy as np

    from repro.serving import ServingClient, ServingError

    async def go() -> int:
        client = await ServingClient.connect(
            args.host,
            args.port,
            timeout=args.timeout,
            retries=args.retries,
        )
        try:
            if args.op == "ping":
                print(json.dumps(await client.ping(), indent=2))
            elif args.op == "stats":
                print(json.dumps(await client.stats(), indent=2))
            elif args.op == "shutdown":
                print(json.dumps(await client.shutdown(), indent=2))
            elif args.op == "swap":
                if not args.swap_path:
                    print("error: --op swap needs --swap-path",
                          file=sys.stderr)
                    return 2
                print(json.dumps(await client.swap(args.swap_path), indent=2))
            else:  # infer
                corpus = _load_corpus(args)
                docs = [
                    corpus.word_ids[
                        corpus.doc_offsets[d]: corpus.doc_offsets[d + 1]
                    ]
                    for d in range(min(corpus.num_docs, args.max_docs))
                ]
                reply = await client.infer(
                    docs,
                    seed=args.inference_seed,
                    deadline_ms=args.deadline_ms,
                )
                print(
                    f"generation {reply.generation}: {len(docs)} documents, "
                    f"queue wait {reply.queue_wait_s * 1e3:.1f} ms, "
                    f"service {reply.service_s * 1e3:.1f} ms "
                    f"(coalesced with {reply.coalesced_requests} requests)"
                )
                top = np.argsort(-reply.theta, axis=1)[:, : args.top]
                rows = [
                    [
                        d,
                        docs[d].size,
                        " ".join(
                            f"{int(t)}:{reply.theta[d, t]:.2f}"
                            for t in top[d]
                        ),
                    ]
                    for d in range(min(len(docs), args.show_docs))
                ]
                if rows:
                    print(render_table(["doc", "#tokens", "top topics"], rows))
        finally:
            await client.close()
        return 0

    try:
        return asyncio.run(go())
    except ServingError as exc:  # includes ServerBusy
        print(f"server refused: {exc}", file=sys.stderr)
        return 3
    except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
        print(f"error: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2


def cmd_ingest(args: argparse.Namespace) -> int:
    """Ingest a UCI bag-of-words file into a durable sharded store.

    Crash-safe and resumable: rerunning the same command against the
    same store directory picks up from the first missing or damaged
    shard; a complete store is a no-op.
    """
    from repro.corpus.store import ingest_uci_bow

    kwargs: dict = {}
    if args.docs_per_shard is not None:
        kwargs["docs_per_shard"] = args.docs_per_shard
    manifest = ingest_uci_bow(
        args.docword, args.store, vocab_path=args.vocab, **kwargs
    )
    print(
        f"ingested {manifest['num_docs']} documents "
        f"({manifest['num_tokens']} tokens) into {args.store} "
        f"[{len(manifest['shards'])} shard(s) of "
        f"{manifest['docs_per_shard']} docs]"
    )
    return 0


def cmd_corpus_verify(args: argparse.Namespace) -> int:
    """Offline integrity check of a corpus store (exit 1 on corruption)."""
    from repro.corpus.store import verify_store

    report = verify_store(args.store, quarantine=args.quarantine)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        rows = [
            [s["name"], s["status"], s.get("detail", "")]
            for s in report["shards"]
        ]
        if rows:
            print(render_table(["shard", "status", "detail"], rows))
        print(f"store {report['path']}: {report['status']}")
        if report.get("detail"):
            print(f"  {report['detail']}")
        if report["quarantined"]:
            print(f"  quarantined: {', '.join(report['quarantined'])}")
        if "resume_from_shard" in report:
            print(
                f"  manifest rolled back; `repro ingest` resumes at shard "
                f"{report['resume_from_shard']}"
            )
    if report["status"] == "corrupt":
        return 1
    if report["status"] == "incomplete":
        return 3
    return 0


def cmd_verify_artifact(args: argparse.Namespace) -> int:
    """Offline integrity check of a model artifact or checkpoint."""
    from repro.integrity import verify_artifact

    worst = 0
    for path in args.paths:
        report = verify_artifact(path)
        rows = [
            ["path", report["path"]],
            ["kind", report["kind"] or "?"],
            ["version", report["version"] if report["version"] is not None
             else "?"],
            ["status", report["status"]],
            ["digest", (report.get("digest") or "-")[:16]],
            ["stored digest", (report.get("stored_digest") or "-")[:16]],
            ["detail", report.get("detail", "")],
        ]
        print(render_table(["field", "value"], rows))
        if report["status"] == "corrupt":
            worst = 1
    return worst


def cmd_algorithms(args: argparse.Namespace) -> int:
    from repro.api import algorithm_names, get_algorithm

    rows = []
    for name in algorithm_names():
        spec = get_algorithm(name)
        rows.append([name, spec.summary])
    print(render_table(["algorithm", "description"], rows))
    print()
    for name in algorithm_names():
        spec = get_algorithm(name)
        opts = spec.all_options()
        print(f"{name} options:")
        for opt in sorted(opts):
            print(f"  {opt:<22} {opts[opt]}")
        print()
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro.checks import UsageError, known_codes, render_text, run_checks

    try:
        if args.list_rules:
            for code, summary in sorted(known_codes().items()):
                print(f"{code}  {summary}")
            return 0
        config = Path(args.config) if args.config else _find_checks_config()
        select = None
        if args.select:
            select = [tok for part in args.select for tok in part.split(",")]
        report = run_checks(args.paths, config, select=select)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.to_json())
    else:
        print(render_text(report))
    return report.exit_code


def _find_checks_config() -> Path:
    """Walk up from the cwd looking for checks.toml (like ruff/pytest do)."""
    here = Path.cwd().resolve()
    for candidate in [here, *here.parents]:
        config = candidate / "checks.toml"
        if config.is_file():
            return config
    # Fall back to the repo the package itself lives in (src/repro -> root).
    packaged = Path(__file__).resolve().parents[2] / "checks.toml"
    return packaged


class _Parser(argparse.ArgumentParser):
    """A parser that may fetch some defaults when it first parses.

    ``lazy_defaults`` returns ``set_defaults`` keywords.  It runs only
    for the subcommand being parsed, so a default whose one spelling
    lives in a heavy module costs the other subcommands nothing.
    """

    lazy_defaults = None

    def parse_known_args(self, args=None, namespace=None):
        if self.lazy_defaults is not None:
            self.set_defaults(**self.lazy_defaults())
            self.lazy_defaults = None
        return super().parse_known_args(args, namespace)


def _infer_defaults() -> dict:
    from repro.model.inference import DEFAULT_BATCH_DOCS

    return {"batch_docs": DEFAULT_BATCH_DOCS}


def _serve_defaults() -> dict:
    from repro.serving.server import DEFAULT_SERVE_BURN_IN, DEFAULT_SERVE_SWEEPS

    return {
        "sweeps": DEFAULT_SERVE_SWEEPS,
        "burn_in": DEFAULT_SERVE_BURN_IN,
        **_infer_defaults(),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CuLDA_CGS reproduction: LDA training on simulated GPUs",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_corpus_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--docword", help="UCI bag-of-words file")
        p.add_argument("--vocab", help="vocabulary file (one term per line)")
        p.add_argument("--preset", choices=sorted(PRESETS))
        p.add_argument("--scale", type=float, default=0.003,
                       help="scale factor for --preset shapes")
        p.add_argument("--seed", type=int, default=0)

    def add_algo_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--algo", default="culda",
            help="algorithm to train (see 'repro algorithms'; default culda)",
        )

    p_train = sub.add_parser("train", help="train a model")
    add_corpus_args(p_train)
    add_algo_arg(p_train)
    p_train.add_argument("--topics", type=int, default=128)
    p_train.add_argument("--iterations", type=int, default=30)
    p_train.add_argument("--gpus", type=int,
                         default=_ALGO_FLAG_DEFAULTS["gpus"])
    p_train.add_argument("--chunks-per-gpu", type=int,
                         default=_ALGO_FLAG_DEFAULTS["chunks_per_gpu"])
    p_train.add_argument("--platform", default=_ALGO_FLAG_DEFAULTS["platform"])
    p_train.add_argument(
        "--compute-dtype", dest="compute_dtype",
        choices=("float64", "float32"),
        default=_ALGO_FLAG_DEFAULTS["compute_dtype"],
        help="sampling-kernel float dtype (float32 = half bandwidth, "
             "different but statistically equivalent chain)",
    )
    p_train.add_argument(
        "--execution", choices=("serial", "process"),
        default=_ALGO_FLAG_DEFAULTS["execution"],
        help="device-loop executor: process = real OS workers over shared "
             "memory (bit-identical draws; see docs/PERFORMANCE.md)",
    )
    p_train.add_argument(
        "--num-workers", dest="num_workers", type=int,
        default=_ALGO_FLAG_DEFAULTS["num_workers"],
        help="OS worker processes for --execution process "
             "(default: min(devices, CPUs this process may run on))",
    )
    p_train.add_argument(
        "--sync-mode", dest="sync_mode",
        choices=("barrier", "overlap"),
        default=_ALGO_FLAG_DEFAULTS["sync_mode"],
        help="process-mode phi sync; either way the master merges the "
             "workers' deltas and each worker copies the merged model into "
             "its replica: barrier = the next iteration starts after the "
             "master's accounting and likelihood, overlap = it starts "
             "right after the merge (bit-identical draws in both modes)",
    )
    p_train.add_argument(
        "--affinity", dest="worker_affinity",
        default=_ALGO_FLAG_DEFAULTS["worker_affinity"],
        help="comma-separated CPU ids to pin OS workers to, e.g. '0,2,4' "
             "(round-robin; --execution process only)",
    )
    p_train.add_argument(
        "--likelihood-every", type=int, default=None,
        help="LL/token cadence (default 5; a resumed run inherits the "
             "checkpoint's cadence unless overridden)",
    )
    p_train.add_argument(
        "--corpus-store", dest="corpus_store",
        help="train from a durable sharded corpus store directory (from "
             "'repro ingest') instead of --docword/--preset; windows are "
             "streamed from digest-verified shards, bit-identical to the "
             "in-RAM run (culda only)",
    )
    p_train.add_argument("--output", help="write model .npz here")
    p_train.add_argument("--checkpoint", help="write resumable checkpoint here")
    p_train.add_argument(
        "--resume",
        help="continue from a checkpoint; one with a run record rebuilds "
             "the recorded trainer and continues bit-identically (one "
             "saved without it restores state only, trainer comes from "
             "the flags)",
    )
    p_train.set_defaults(func=cmd_train)

    p_topics = sub.add_parser("topics", help="inspect a saved model")
    p_topics.add_argument("--model", required=True)
    p_topics.add_argument("--vocab")
    p_topics.add_argument("--top", type=int, default=10)
    p_topics.add_argument("--num-topics", type=int, default=10,
                          help="how many topics to print")
    p_topics.set_defaults(func=cmd_topics)

    def add_inference_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", required=True,
                       help="model .npz from 'repro train --output'")
        p.add_argument("--sweeps", type=int, default=25,
                       help="fold-in Gibbs sweeps per document")
        p.add_argument("--burn-in", dest="burn_in", type=int, default=10,
                       help="sweeps discarded before averaging theta")
        p.add_argument("--inference-seed", dest="inference_seed", type=int,
                       default=0,
                       help="seed of the fold-in draws (per-document "
                            "streams; --seed shapes the corpus)")
        p.add_argument("--num-workers", dest="num_workers", type=int,
                       default=None,
                       help="fan batches out over this many OS worker "
                            "processes sharing one read-only model arena "
                            "(phi is frozen — results identical for any "
                            "worker count)")
        p.add_argument("--affinity", dest="worker_affinity", default=None,
                       help="comma-separated CPU ids to pin inference "
                            "workers to (round-robin)")

    p_infer = sub.add_parser(
        "infer", help="batched topic-mixture inference for new documents"
    )
    add_corpus_args(p_infer)
    add_inference_args(p_infer)
    p_infer.add_argument("--output", help="write theta (D x K) .npz here")
    p_infer.add_argument("--top", type=int, default=3,
                         help="top topics shown per document")
    p_infer.add_argument("--show-docs", dest="show_docs", type=int, default=10,
                         help="documents to print (all are inferred)")
    p_infer.add_argument("--batch-docs", dest="batch_docs", type=int,
                         help="documents per fold-in batch (memory knob; "
                              "results are identical for any value; "
                              "default %(default)s)")
    p_infer.lazy_defaults = _infer_defaults
    p_infer.set_defaults(func=cmd_infer)

    p_eval = sub.add_parser(
        "evaluate", help="document-completion perplexity of a saved model"
    )
    add_corpus_args(p_eval)
    add_inference_args(p_eval)
    p_eval.add_argument("--observed-fraction", dest="observed_fraction",
                        type=float, default=0.5,
                        help="fraction of each document folded in; the "
                             "rest is scored")
    p_eval.set_defaults(func=cmd_evaluate)

    p_serve = sub.add_parser(
        "serve",
        help="serve a model over the socket protocol (coalescing, hot swap)",
    )
    p_serve.add_argument("--model", required=True,
                         help="model .npz from 'repro train --output'")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="0 picks a free port (printed on the ready line)")
    p_serve.add_argument("--sweeps", type=int,
                         help="fold-in Gibbs sweeps (fixed per server: "
                              "coalesced requests share one schedule; "
                              "default %(default)s)")
    p_serve.add_argument("--burn-in", dest="burn_in", type=int,
                         help="default %(default)s")
    p_serve.add_argument("--batch-docs", dest="batch_docs", type=int,
                         help="default %(default)s")
    p_serve.lazy_defaults = _serve_defaults
    p_serve.add_argument("--num-workers", dest="num_workers", type=int,
                         default=None,
                         help="inference worker processes per generation "
                              "(default: the CPUs this process may run "
                              "on; 1 serves in-process). Requests too "
                              "small to split fold in-process either way")
    p_serve.add_argument("--affinity", dest="worker_affinity", default=None,
                         help="comma-separated CPU ids for inference workers")
    p_serve.add_argument("--max-pending", dest="max_pending", type=int,
                         default=64,
                         help="queued requests beyond which clients get a "
                              "typed 'busy' response")
    p_serve.add_argument(
        "--breaker-threshold", dest="breaker_threshold", type=int, default=5,
        help="consecutive dispatch failures that open the circuit breaker "
             "(typed 'circuit_open' refusals; 0 disables)",
    )
    p_serve.add_argument(
        "--breaker-reset", dest="breaker_reset", type=float, default=2.0,
        help="seconds an open breaker waits before its half-open probe",
    )
    p_serve.add_argument(
        "--dispatch-timeout", dest="dispatch_timeout", type=float,
        default=300.0,
        help="watchdog bound (seconds) over any single dispatch, even "
             "one carrying deadline-less requests; a wedged inference "
             "past it is abandoned and the generation healed (0 disables)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_query = sub.add_parser(
        "query", help="client for a running 'repro serve'"
    )
    add_corpus_args(p_query)
    p_query.add_argument("--host", default="127.0.0.1")
    p_query.add_argument("--port", type=int, required=True)
    p_query.add_argument(
        "--op", choices=("infer", "stats", "ping", "swap", "shutdown"),
        default="infer",
    )
    p_query.add_argument("--swap-path", dest="swap_path",
                         help="model artifact for --op swap")
    p_query.add_argument("--inference-seed", dest="inference_seed", type=int,
                         default=0)
    p_query.add_argument("--max-docs", dest="max_docs", type=int, default=32,
                         help="documents sent from the corpus (per request)")
    p_query.add_argument("--top", type=int, default=3)
    p_query.add_argument("--show-docs", dest="show_docs", type=int,
                         default=10)
    p_query.add_argument(
        "--timeout", type=float, default=None,
        help="seconds allowed per connect and per request (default: wait "
             "forever)",
    )
    p_query.add_argument(
        "--retries", type=int, default=0,
        help="bounded retries with jittered exponential backoff on 'busy', "
             "'circuit_open' and transient connection errors (default 0 = "
             "fail fast)",
    )
    p_query.add_argument(
        "--deadline-ms", dest="deadline_ms", type=float, default=None,
        help="server-side deadline for --op infer: the reply arrives by "
             "this budget or is a typed 'deadline_exceeded' (default: none)",
    )
    p_query.set_defaults(func=cmd_query)

    p_ingest = sub.add_parser(
        "ingest",
        help="ingest a UCI bag-of-words file into a durable sharded corpus "
             "store (crash-safe; rerun to resume)",
    )
    p_ingest.add_argument("--docword", required=True,
                          help="UCI bag-of-words file")
    p_ingest.add_argument("--vocab",
                          help="vocabulary file (one term per line)")
    p_ingest.add_argument("--store", required=True,
                          help="store directory (created if missing)")
    p_ingest.add_argument(
        "--docs-per-shard", dest="docs_per_shard", type=int, default=None,
        help="documents per shard (default 4096; fixed per store — resume "
             "must cut identical shards)",
    )
    p_ingest.set_defaults(func=cmd_ingest)

    p_corpus = sub.add_parser(
        "corpus", help="corpus store maintenance"
    )
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)
    p_cverify = corpus_sub.add_parser(
        "verify",
        help="verify the manifest digest and every shard of a corpus store",
    )
    p_cverify.add_argument("store", help="corpus store directory")
    p_cverify.add_argument(
        "--quarantine", action="store_true",
        help="move corrupt files into <store>/quarantine/ and roll the "
             "manifest back so 'repro ingest' re-ingests the damaged "
             "suffix",
    )
    p_cverify.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text)",
    )
    p_cverify.set_defaults(func=cmd_corpus_verify)

    p_verify = sub.add_parser(
        "verify-artifact",
        help="offline integrity check (payload sha256) of model artifacts, "
             "checkpoints, corpus shards and store manifests",
    )
    p_verify.add_argument(
        "paths", nargs="+",
        help="artifact files to verify — .npz payloads or store "
             "manifest.json (exit 1 if any is corrupt)",
    )
    p_verify.set_defaults(func=cmd_verify_artifact)

    p_algos = sub.add_parser(
        "algorithms", help="list registered algorithms and their options"
    )
    p_algos.set_defaults(func=cmd_algorithms)

    p_check = sub.add_parser(
        "check",
        help="run the repo-aware static-analysis suite (see "
             "docs/STATIC_ANALYSIS.md)",
    )
    p_check.add_argument(
        "paths", nargs="*",
        help="files/directories to check (default: [run].paths in checks.toml)",
    )
    p_check.add_argument(
        "--config", help="path to checks.toml (default: search upward from cwd)"
    )
    p_check.add_argument(
        "--select", action="append", default=[],
        help="only run codes matching these prefixes, e.g. RPR4 or "
             "RPR101,RPR203 (repeatable)",
    )
    p_check.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text)",
    )
    p_check.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
