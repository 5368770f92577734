"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.corpus.io import write_uci_bow
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.topics == 128
        assert args.platform == "Volta"
        assert args.algo == "culda"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_train_resume_and_cadence_flags(self):
        args = build_parser().parse_args(["train"])
        assert args.resume is None
        # None so a resumed run can inherit the checkpoint's cadence.
        assert args.likelihood_every is None
        args = build_parser().parse_args(["train", "--resume", "ck.npz"])
        assert args.resume == "ck.npz"

    def test_query_timeout_retry_flags(self):
        args = build_parser().parse_args(["query", "--port", "1"])
        assert args.timeout is None
        assert args.retries == 0
        args = build_parser().parse_args(
            ["query", "--port", "1", "--timeout", "2.5", "--retries", "4"]
        )
        assert args.timeout == 2.5
        assert args.retries == 4


class TestTrain:
    def test_train_synthetic_default(self, capsys):
        rc = main(["train", "--topics", "8", "--iterations", "2",
                   "--likelihood-every", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "corpus:" in out and "done:" in out

    def test_uncomputed_likelihood_is_named_not_none(self, capsys):
        """Two iterations never reach the default cadence of 5: the
        summary says so instead of printing ``None``."""
        rc = main(["train", "--topics", "8", "--iterations", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "None" not in out
        assert "LL/token not computed (--likelihood-every 5)" in out

    def test_train_writes_model(self, tmp_path, capsys):
        model = tmp_path / "m.npz"
        rc = main([
            "train", "--topics", "8", "--iterations", "2",
            "--output", str(model),
        ])
        assert rc == 0
        assert model.exists()

    def test_train_preset(self, capsys):
        rc = main([
            "train", "--preset", "pubmed", "--scale", "0.0002",
            "--topics", "8", "--iterations", "1", "--likelihood-every", "0",
        ])
        assert rc == 0

    def test_train_from_uci(self, tmp_path, capsys):
        corpus = generate_synthetic_corpus(
            small_spec(num_docs=50, num_words=80, mean_doc_len=20), seed=3
        )
        dw = tmp_path / "docword.txt"
        write_uci_bow(corpus, dw)
        rc = main([
            "train", "--docword", str(dw), "--topics", "6",
            "--iterations", "1", "--likelihood-every", "0",
        ])
        assert rc == 0

    def test_bad_platform_is_handled(self, capsys):
        rc = main(["train", "--platform", "turing", "--iterations", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_handled(self, capsys):
        rc = main(["train", "--docword", "/nonexistent/file.txt"])
        assert rc == 2

    def test_train_with_algo(self, capsys):
        rc = main(["train", "--algo", "warplda", "--topics", "8",
                   "--iterations", "2", "--likelihood-every", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "warplda" in out and "done:" in out

    def test_train_sequential_algo(self, capsys):
        rc = main(["train", "--algo", "plain_cgs", "--topics", "6",
                   "--iterations", "1", "--likelihood-every", "1"])
        assert rc == 0

    def test_unknown_algo_is_handled(self, capsys):
        rc = main(["train", "--algo", "frobnicate", "--iterations", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown algorithm" in err and "culda" in err

    def test_retired_algo_is_unknown(self, capsys):
        rc = main(["train", "--algo", "sparselda", "--iterations", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown algorithm 'sparselda'" in err

    def test_model_output_works_for_dense_algorithms(self, tmp_path, capsys):
        """--output exports a TopicModel for every algorithm, not just culda."""
        from repro.model import TopicModel

        path = tmp_path / "m.npz"
        rc = main(["train", "--algo", "warplda", "--topics", "6",
                   "--iterations", "1", "--likelihood-every", "0",
                   "--output", str(path)])
        assert rc == 0
        model = TopicModel.load(path)
        assert model.num_topics == 6
        assert model.metadata["algorithm"] == "warplda"

    def test_checkpoint_still_needs_lda_state(self, tmp_path, capsys):
        rc = main(["train", "--algo", "warplda", "--topics", "6",
                   "--iterations", "1",
                   "--checkpoint", str(tmp_path / "ck.npz")])
        assert rc == 2
        assert "LdaState" in capsys.readouterr().err


class TestTopics:
    def test_topics_roundtrip(self, tmp_path, capsys):
        model = tmp_path / "m.npz"
        assert main([
            "train", "--topics", "6", "--iterations", "3",
            "--output", str(model), "--likelihood-every", "0",
        ]) == 0
        capsys.readouterr()
        rc = main(["topics", "--model", str(model), "--num-topics", "3",
                   "--top", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "topic" in out and "w" in out

    def test_topics_with_vocab(self, tmp_path, capsys):
        model = tmp_path / "m.npz"
        main(["train", "--topics", "6", "--iterations", "2",
              "--output", str(model), "--likelihood-every", "0"])
        # default synthetic corpus has V=500
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(f"term{i}" for i in range(500)) + "\n")
        capsys.readouterr()
        rc = main(["topics", "--model", str(model), "--vocab", str(vocab)])
        assert rc == 0
        assert "term" in capsys.readouterr().out

    def test_topics_vocab_mismatch(self, tmp_path, capsys):
        model = tmp_path / "m.npz"
        main(["train", "--topics", "6", "--iterations", "1",
              "--output", str(model), "--likelihood-every", "0"])
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("just_one\n")
        rc = main(["topics", "--model", str(model), "--vocab", str(vocab)])
        assert rc == 2

    def test_topics_missing_model_keys(self, tmp_path, capsys):
        """An npz lacking required keys gets a clear error, not a KeyError."""
        bad = tmp_path / "bad.npz"
        np.savez(bad, version=2, kind="model",
                 topic_totals=np.array([1, 2]), num_words=3)
        rc = main(["topics", "--model", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "phi" in err


class TestTopicsVocabAlignment:
    def _train(self, tmp_path):
        model = tmp_path / "m.npz"
        main(["train", "--topics", "6", "--iterations", "2",
              "--output", str(model), "--likelihood-every", "0"])
        return model

    def test_blank_line_mid_file_keeps_positions(self, tmp_path, capsys):
        """A blank vocab line is a placeholder, not a gap: word ids after
        it must keep their terms (the old filter shifted every one)."""
        model = self._train(tmp_path)
        # default synthetic corpus has V=500; blank out term 1
        terms = [f"term{i}" for i in range(500)]
        terms[1] = ""
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(terms) + "\n")
        capsys.readouterr()
        rc = main(["topics", "--model", str(model), "--vocab", str(vocab),
                   "--num-topics", "6", "--top", "500"])
        assert rc == 0
        out = capsys.readouterr().out
        # term N still labels word id N — nothing shifted down
        assert "term499" in out
        assert "term2" in out

    def test_trailing_blank_lines_tolerated(self, tmp_path, capsys):
        model = self._train(tmp_path)
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(f"t{i}" for i in range(500)) + "\n\n\n")
        capsys.readouterr()
        rc = main(["topics", "--model", str(model), "--vocab", str(vocab)])
        assert rc == 0

    def test_count_mismatch_still_errors(self, tmp_path, capsys):
        model = self._train(tmp_path)
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(f"t{i}" for i in range(499)) + "\n")
        capsys.readouterr()
        rc = main(["topics", "--model", str(model), "--vocab", str(vocab)])
        assert rc == 2
        assert "499" in capsys.readouterr().err


class TestInferEvaluate:
    @pytest.fixture()
    def model_path(self, tmp_path):
        path = tmp_path / "m.npz"
        rc = main(["train", "--topics", "6", "--iterations", "2",
                   "--output", str(path), "--likelihood-every", "0"])
        assert rc == 0
        return path

    def test_infer_prints_and_writes_theta(self, tmp_path, model_path, capsys):
        theta_path = tmp_path / "theta.npz"
        capsys.readouterr()
        rc = main(["infer", "--model", str(model_path), "--sweeps", "6",
                   "--burn-in", "2", "--show-docs", "2",
                   "--output", str(theta_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "inferred mixtures" in out and "top topics" in out
        with np.load(theta_path) as z:
            theta = z["theta"]
        assert theta.shape[1] == 6
        assert np.allclose(theta.sum(axis=1), 1.0)

    def test_infer_deterministic(self, tmp_path, model_path, capsys):
        a = tmp_path / "a.npz"
        b = tmp_path / "b.npz"
        for out in (a, b):
            rc = main(["infer", "--model", str(model_path), "--sweeps", "5",
                       "--burn-in", "1", "--inference-seed", "9",
                       "--output", str(out)])
            assert rc == 0
        with np.load(a) as za, np.load(b) as zb:
            assert np.array_equal(za["theta"], zb["theta"])

    def test_infer_rejects_oversized_corpus_vocab(
        self, tmp_path, model_path, capsys
    ):
        # a corpus over V=600 words cannot be served by the V=500 model
        big = generate_synthetic_corpus(
            small_spec(num_docs=30, num_words=600, mean_doc_len=10), seed=2
        )
        dw = tmp_path / "docword.txt"
        write_uci_bow(big, dw)
        rc = main(["infer", "--model", str(model_path), "--docword", str(dw)])
        assert rc == 2
        assert "vocabulary" in capsys.readouterr().err

    def test_evaluate_reports_perplexity(self, model_path, capsys):
        capsys.readouterr()
        rc = main(["evaluate", "--model", str(model_path), "--sweeps", "6",
                   "--burn-in", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "perplexity" in out and "log predictive" in out

    def test_evaluate_rejects_v1_artifact(self, tmp_path, capsys):
        """A seed-era v1 file is a clean error naming the version."""
        from repro.model import TopicModel

        model_path = tmp_path / "m.npz"
        main(["train", "--topics", "6", "--iterations", "2",
              "--output", str(model_path), "--likelihood-every", "0"])
        m = TopicModel.load(model_path)
        v1 = tmp_path / "v1.npz"
        np.savez_compressed(
            v1, version=1, kind="model", phi=m.phi.astype(np.int32),
            topic_totals=m.topic_totals, alpha=m.alpha, beta=m.beta,
            num_topics=m.num_topics, num_words=m.num_words,
        )
        capsys.readouterr()
        rc = main(["evaluate", "--model", str(v1), "--sweeps", "5",
                   "--burn-in", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "version 1" in err


class TestBenchmark:
    """``train`` prints the simulated kernel shares after its throughput."""

    def test_benchmark_runs(self, capsys):
        rc = main(["train", "--topics", "8", "--iterations", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tokens/s" in out
        assert "sampling" in out

    def test_benchmark_with_algo(self, capsys):
        rc = main(["train", "--algo", "warplda", "--topics", "8",
                   "--iterations", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "warplda" in out and "tokens/s" in out
        # No kernel breakdown for CPU baselines.
        assert "sampling" not in out


class TestAlgorithms:
    def test_lists_all_registered(self, capsys):
        from repro.api import algorithm_names

        rc = main(["algorithms"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in algorithm_names():
            assert name in out
        assert "options:" in out
        assert "topics" in out and "seed" in out


class TestParallelFlags:
    """--sync-mode / --affinity on train, --num-workers on infer/evaluate."""

    def test_train_sync_mode_overlap(self, capsys):
        rc = main(["train", "--topics", "8", "--iterations", "2",
                   "--likelihood-every", "0", "--gpus", "2",
                   "--execution", "process", "--num-workers", "2",
                   "--sync-mode", "overlap", "--affinity", "0"])
        assert rc == 0
        assert "done: 2 iterations" in capsys.readouterr().out

    def test_sync_mode_rejected_without_process(self, capsys):
        rc = main(["train", "--topics", "8", "--iterations", "1",
                   "--sync-mode", "overlap"])
        assert rc == 2
        assert "execution" in capsys.readouterr().err

    def test_bad_affinity_is_handled(self, capsys):
        rc = main(["train", "--topics", "8", "--iterations", "1",
                   "--execution", "process", "--affinity", "zero"])
        assert rc == 2
        assert "affinity" in capsys.readouterr().err

    def test_affinity_warns_for_sequential_algo(self, capsys):
        rc = main(["train", "--topics", "8", "--iterations", "1",
                   "--algo", "plain_cgs", "--likelihood-every", "0",
                   "--affinity", "0"])
        assert rc == 0
        assert "ignoring" in capsys.readouterr().err

    def test_infer_with_workers_matches_serial(self, tmp_path, capsys):
        model = tmp_path / "m.npz"
        rc = main(["train", "--topics", "6", "--iterations", "2",
                   "--output", str(model), "--likelihood-every", "0"])
        assert rc == 0
        a = tmp_path / "a.npz"
        b = tmp_path / "b.npz"
        rc = main(["infer", "--model", str(model), "--sweeps", "5",
                   "--burn-in", "1", "--output", str(a)])
        assert rc == 0
        rc = main(["infer", "--model", str(model), "--sweeps", "5",
                   "--burn-in", "1", "--output", str(b),
                   "--num-workers", "2"])
        assert rc == 0
        capsys.readouterr()
        ta = np.load(a)["theta"]
        tb = np.load(b)["theta"]
        assert np.array_equal(ta, tb)

    def test_evaluate_with_workers(self, tmp_path, capsys):
        model = tmp_path / "m.npz"
        rc = main(["train", "--topics", "6", "--iterations", "2",
                   "--output", str(model), "--likelihood-every", "0"])
        assert rc == 0
        capsys.readouterr()
        rc = main(["evaluate", "--model", str(model), "--sweeps", "5",
                   "--burn-in", "1", "--num-workers", "2"])
        assert rc == 0
        assert "perplexity" in capsys.readouterr().out


class TestServeQuery:
    """The serving subcommands (the server itself is tested in
    tests/test_serving.py; here: parsing, wiring, and the lineage line)."""

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--model", "m.npz"])
        assert args.port == 0
        assert args.max_pending == 64
        assert args.sweeps == 20 and args.burn_in == 8

    def test_serve_defaults_are_the_serving_constants(self):
        from repro.serving import (
            DEFAULT_MAX_PENDING,
            DEFAULT_SERVE_BURN_IN,
            DEFAULT_SERVE_SWEEPS,
        )
        from repro.serving.breaker import (
            DEFAULT_FAILURE_THRESHOLD,
            DEFAULT_RESET_TIMEOUT_S,
        )
        from repro.serving.server import DEFAULT_DISPATCH_TIMEOUT_S

        args = build_parser().parse_args(["serve", "--model", "m.npz"])
        assert (args.sweeps, args.burn_in) == (
            DEFAULT_SERVE_SWEEPS, DEFAULT_SERVE_BURN_IN,
        )
        assert (
            args.max_pending, args.breaker_threshold, args.breaker_reset,
            args.dispatch_timeout,
        ) == (
            DEFAULT_MAX_PENDING, DEFAULT_FAILURE_THRESHOLD,
            DEFAULT_RESET_TIMEOUT_S, DEFAULT_DISPATCH_TIMEOUT_S,
        )
        args = build_parser().parse_args(
            ["serve", "--model", "m.npz", "--sweeps", "9"]
        )
        assert (args.sweeps, args.burn_in) == (9, DEFAULT_SERVE_BURN_IN)

    @pytest.mark.parametrize("command", ["infer", "evaluate"])
    def test_offline_schedule_is_the_session_default(self, command):
        """``repro infer``/``evaluate`` fold in on the schedule an
        ``InferenceSession`` gets when none is given."""
        import inspect

        from repro.model import InferenceSession

        params = inspect.signature(InferenceSession).parameters
        args = build_parser().parse_args([command, "--model", "m.npz"])
        assert (args.sweeps, args.burn_in) == (
            params["num_sweeps"].default, params["burn_in"].default,
        )
        args = build_parser().parse_args(
            [command, "--model", "m.npz", "--burn-in", "2"]
        )
        assert (args.sweeps, args.burn_in) == (
            params["num_sweeps"].default, 2,
        )

    def test_query_parser_defaults(self):
        args = build_parser().parse_args(["query", "--port", "7"])
        assert args.op == "infer"
        assert args.host == "127.0.0.1"

    def test_topics_prints_lineage(self, tmp_path, capsys):
        model = tmp_path / "m.npz"
        assert main([
            "train", "--topics", "6", "--iterations", "2",
            "--output", str(model), "--likelihood-every", "0",
        ]) == 0
        capsys.readouterr()
        assert main(["topics", "--model", str(model)]) == 0
        out = capsys.readouterr().out
        assert "generation" in out and "parent -" in out

    def test_query_unreachable_server_is_handled(self, capsys):
        # nothing listens on this port; the client must fail cleanly
        rc = main(["query", "--port", "1", "--op", "ping"])
        assert rc == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_query_swap_requires_path(self, capsys):
        rc = main(["query", "--port", "1", "--op", "swap"])
        # refused before any connection attempt
        assert rc == 2

    def test_serve_and_query_end_to_end(self, tmp_path, capsys):
        """Full loop through the CLI entry points, in one process."""
        import asyncio
        import threading

        from repro.serving import ServingServer

        model = tmp_path / "m.npz"
        assert main([
            "train", "--topics", "6", "--iterations", "2",
            "--output", str(model), "--likelihood-every", "0",
        ]) == 0
        capsys.readouterr()
        # cmd_serve blocks; run the same server object it would build on
        # a thread, then drive cmd_query against it from the test thread.
        server = ServingServer(str(model), num_sweeps=5, burn_in=1)
        ready = threading.Event()
        addr: list = []

        def serve():
            def on_ready(address):
                addr.append(address)
                ready.set()

            asyncio.run(server.run(on_ready))

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        assert ready.wait(timeout=30.0)
        port = str(addr[0][1])
        try:
            assert main(["query", "--port", port, "--op", "ping"]) == 0
            assert "pong" in capsys.readouterr().out
            assert main(["query", "--port", port, "--max-docs", "3"]) == 0
            out = capsys.readouterr().out
            assert "generation" in out and "top topics" in out
            assert main(["query", "--port", port, "--op", "stats"]) == 0
            assert '"completed": 1' in capsys.readouterr().out
        finally:
            assert main(["query", "--port", port, "--op", "shutdown"]) == 0
            t.join(timeout=30.0)
        assert not t.is_alive()


class TestVerifyArtifact:
    def test_verified_model_exits_zero(self, tmp_path, capsys):
        model = tmp_path / "m.npz"
        assert main(["train", "--topics", "6", "--iterations", "1",
                     "--output", str(model)]) == 0
        capsys.readouterr()
        assert main(["verify-artifact", str(model)]) == 0
        out = capsys.readouterr().out
        assert "verified" in out and "model" in out

    def test_corrupt_artifact_exits_one(self, tmp_path, capsys):
        import numpy as np

        model = tmp_path / "m.npz"
        assert main(["train", "--topics", "6", "--iterations", "1",
                     "--output", str(model)]) == 0
        capsys.readouterr()
        with np.load(model, allow_pickle=False) as z:
            data = {k: z[k] for k in z.files}
        phi = data["phi"].copy()
        phi.flat[0] += 1
        data["phi"] = phi
        np.savez_compressed(model, **data)
        assert main(["verify-artifact", str(model)]) == 1
        out = capsys.readouterr().out
        assert "corrupt" in out and "digest mismatch" in out

    def test_mixed_paths_worst_status_wins(self, tmp_path, capsys):
        model = tmp_path / "m.npz"
        assert main(["train", "--topics", "6", "--iterations", "1",
                     "--output", str(model)]) == 0
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"nope")
        capsys.readouterr()
        assert main(["verify-artifact", str(model), str(garbage)]) == 1
        out = capsys.readouterr().out
        assert "verified" in out and "unreadable" in out
