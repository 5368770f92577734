"""Resumable v2 checkpoints: self-description, atomicity, bit-identical resume.

The checkpoint half of the robustness PR:

- v2 files carry vocabulary, lineage and the resumable-run record; v1
  files are a typed rejection naming the version;
- writes are atomic — a failed save can neither tear the previous
  checkpoint nor leave temp litter;
- a run resumed from a checkpoint continues **bit-identically**: same
  assignments, phi, likelihoods and simulated clocks as the
  uninterrupted golden, across culda serial/process and LDA*.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.api import create_trainer
from repro.core.snapshot import (
    FORMAT_VERSION,
    load_checkpoint_full,
    run_info,
    save_checkpoint,
)
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec
from repro.integrity import verify_artifact


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_corpus(
        small_spec(num_docs=80, num_words=120, mean_doc_len=20), seed=9
    )


@pytest.fixture(autouse=True)
def disarm():
    faults.reset()
    yield
    faults.reset()


def final_answer(trainer):
    """(assignments, phi, sim clocks, lls) — the bit-identity tuple."""
    z = np.concatenate(
        [cs.topics.astype(np.int64) for cs in trainer.state.chunks]
    )
    return (
        z,
        trainer.state.phi.copy(),
        [r.sim_seconds for r in trainer.history],
        [r.log_likelihood_per_token for r in trainer.history],
    )


def resume_matches_golden(corpus, tmp_path, algo, **kwargs):
    """Train 5; train 2 + checkpoint + resume 3; both must agree bitwise."""
    golden = create_trainer(algo, corpus, topics=8, seed=3, **kwargs)
    golden.fit(5, likelihood_every=1)
    g = final_answer(golden)
    golden.close()

    first = create_trainer(algo, corpus, topics=8, seed=3, **kwargs)
    first.fit(2, likelihood_every=1)
    path = save_checkpoint(
        first.state,
        tmp_path / f"{algo}-resume.npz",
        vocabulary=corpus.vocabulary,
        run=run_info(first, likelihood_every=1),
    )
    first.close()

    bundle = load_checkpoint_full(path, corpus)
    assert bundle.run["algorithm"] == algo
    assert bundle.run["iterations_done"] == 2
    resumed = create_trainer(
        bundle.run["algorithm"], corpus, **bundle.run["trainer_kwargs"]
    )
    resumed.restore(bundle.state, bundle.run)
    resumed.fit(3, likelihood_every=1)
    r = final_answer(resumed)
    resumed.close()

    assert np.array_equal(g[0], r[0])  # assignments
    assert np.array_equal(g[1], r[1])  # phi
    assert g[2][2:] == r[2]  # simulated clocks continue exactly
    assert g[3][2:] == r[3]  # likelihood trajectory continues exactly


class TestV2Schema:
    def test_round_trip_carries_metadata(self, corpus, tmp_path):
        from repro.corpus.vocab import Vocabulary

        # Synthetic corpora carry no vocabulary; supply one explicitly.
        vocab = Vocabulary([f"w{i:03d}" for i in range(corpus.num_words)])
        t = create_trainer("culda", corpus, topics=8, seed=1)
        t.fit(2, likelihood_every=0)
        path = save_checkpoint(
            t.state,
            tmp_path / "ck.npz",
            vocabulary=vocab,
            run=run_info(t, likelihood_every=5),
            parent="abcdef123456",
        )
        bundle = load_checkpoint_full(path, corpus)
        assert verify_artifact(path)["version"] == FORMAT_VERSION == 2
        assert bundle.integrity["status"] == "verified"
        assert list(bundle.vocabulary) == list(vocab)
        assert bundle.lineage["parent"] == "abcdef123456"
        assert len(bundle.lineage["generation"]) == 12
        run = bundle.run
        assert run["algorithm"] == "culda"
        assert run["trainer_kwargs"]["topics"] == 8
        assert run["trainer_kwargs"]["seed"] == 1
        assert run["iterations_done"] == 2
        assert run["sim_time"] > 0.0
        assert run["likelihood_every"] == 5
        assert np.array_equal(bundle.state.phi, t.state.phi)

    def test_metadata_is_optional(self, corpus, tmp_path):
        t = create_trainer("culda", corpus, topics=8, seed=1)
        t.fit(1, likelihood_every=0)
        path = save_checkpoint(t.state, tmp_path / "bare.npz")
        bundle = load_checkpoint_full(path, corpus)
        assert bundle.vocabulary is None
        assert bundle.run is None
        assert bundle.lineage is not None  # lineage is always stamped

    def test_v1_checkpoint_rejected(self, corpus, tmp_path):
        t = create_trainer("culda", corpus, topics=8, seed=1)
        t.fit(1, likelihood_every=0)
        path = save_checkpoint(t.state, tmp_path / "v1.npz")
        # Rewrite as a faithful v1 file: same arrays, no v2 metadata.
        with np.load(path, allow_pickle=False) as z:
            data = {k: z[k] for k in z.files}
        del data["metadata_json"]
        data["version"] = 1
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="version 1 not supported"):
            load_checkpoint_full(path, corpus)

    def test_run_info_none_for_non_resumable(self, corpus):
        t = create_trainer("plain_cgs", corpus, topics=8, seed=1)
        assert run_info(t) is None


class TestAtomicWrites:
    def test_appends_npz_suffix_like_numpy(self, corpus, tmp_path):
        t = create_trainer("culda", corpus, topics=8, seed=1)
        t.fit(1, likelihood_every=0)
        written = save_checkpoint(t.state, tmp_path / "noext")
        assert written == tmp_path / "noext.npz"
        assert written.exists()

    def test_no_temp_litter_after_save(self, corpus, tmp_path):
        t = create_trainer("culda", corpus, topics=8, seed=1)
        t.fit(1, likelihood_every=0)
        save_checkpoint(t.state, tmp_path / "ck.npz")
        assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]

    def test_failed_save_preserves_previous_checkpoint(
        self, corpus, tmp_path, monkeypatch
    ):
        import repro.core.snapshot as snap

        t = create_trainer("culda", corpus, topics=8, seed=1)
        t.fit(1, likelihood_every=0)
        path = tmp_path / "ck.npz"
        save_checkpoint(t.state, path)
        good = path.read_bytes()

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(snap.np, "savez_compressed", explode)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(t.state, path)
        monkeypatch.undo()
        # The old file is untouched and no temp file survived the crash.
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]


class TestBitIdenticalResume:
    def test_culda_serial(self, corpus, tmp_path):
        resume_matches_golden(corpus, tmp_path, "culda", gpus=2)

    def test_culda_process(self, corpus, tmp_path):
        resume_matches_golden(
            corpus, tmp_path, "culda", gpus=2, execution="process",
            num_workers=2, sync_mode="overlap",
        )

    def test_ldastar(self, corpus, tmp_path):
        resume_matches_golden(corpus, tmp_path, "ldastar", workers=2)

    def test_restore_rejects_mismatched_shape(self, corpus, tmp_path):
        t = create_trainer("culda", corpus, topics=8, seed=3)
        t.fit(1, likelihood_every=0)
        path = save_checkpoint(t.state, tmp_path / "ck.npz")
        bundle = load_checkpoint_full(path, corpus)
        other = create_trainer("culda", corpus, topics=16, seed=3)
        with pytest.raises(ValueError, match="topics"):
            other.restore(bundle.state)


class TestCliResume:
    def test_cli_resume_bit_identical(self, tmp_path, capsys):
        from repro.cli import main

        golden_ck = tmp_path / "golden.npz"
        rc = main([
            "train", "--topics", "8", "--iterations", "4",
            "--likelihood-every", "1", "--checkpoint", str(golden_ck),
        ])
        assert rc == 0

        half_ck = tmp_path / "half.npz"
        rc = main([
            "train", "--topics", "8", "--iterations", "2",
            "--likelihood-every", "1", "--checkpoint", str(half_ck),
        ])
        assert rc == 0

        resumed_ck = tmp_path / "resumed.npz"
        rc = main([
            "train", "--resume", str(half_ck), "--iterations", "2",
            "--checkpoint", str(resumed_ck),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resumed culda" in out and "at iteration 2" in out

        # Compare against the golden on the same (default) corpus.
        from repro.cli import _load_corpus, build_parser

        args = build_parser().parse_args(["train"])
        corpus = _load_corpus(args)
        g = load_checkpoint_full(golden_ck, corpus)
        r = load_checkpoint_full(resumed_ck, corpus)
        assert np.array_equal(g.state.phi, r.state.phi)
        for gc, rc_ in zip(g.state.chunks, r.state.chunks):
            assert np.array_equal(gc.topics, rc_.topics)
        assert g.run["iterations_done"] == r.run["iterations_done"] == 4
        assert g.run["sim_time"] == r.run["sim_time"]
        # The resumed run inherited the checkpoint's cadence.
        assert r.run["likelihood_every"] == 1

    def test_cli_resume_rejects_removed_sync_mode(self, tmp_path, capsys):
        """A v2 checkpoint whose run records the removed
        ``sync_mode="prereduce"`` fails cleanly: exit 2 and one error
        line naming the value, no alias."""
        import json

        from repro.cli import main

        ck = tmp_path / "prereduce.npz"
        rc = main([
            "train", "--topics", "8", "--gpus", "2", "--iterations", "1",
            "--execution", "process", "--num-workers", "2",
            "--likelihood-every", "0", "--checkpoint", str(ck),
        ])
        assert rc == 0
        with np.load(ck, allow_pickle=False) as z:
            data = {k: z[k] for k in z.files}
        meta = json.loads(str(data["metadata_json"]))
        meta["run"]["trainer_kwargs"]["sync_mode"] = "prereduce"
        data["metadata_json"] = json.dumps(meta)
        np.savez_compressed(ck, **data)
        capsys.readouterr()
        rc = main(["train", "--resume", str(ck), "--iterations", "1"])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "'prereduce'" in err[0]

    def test_cli_resume_rejects_removed_compute_dtype(self, tmp_path, capsys):
        """culda runs recorded ``compute_dtype="float64"`` until float64
        became the only kernel dtype.  Such a checkpoint fails cleanly:
        exit 2 and one error line naming the option."""
        import json

        from repro.cli import main

        ck = tmp_path / "dtype.npz"
        rc = main([
            "train", "--topics", "8", "--iterations", "1",
            "--likelihood-every", "0", "--checkpoint", str(ck),
        ])
        assert rc == 0
        with np.load(ck, allow_pickle=False) as z:
            data = {k: z[k] for k in z.files}
        meta = json.loads(str(data["metadata_json"]))
        meta["run"]["trainer_kwargs"]["compute_dtype"] = "float64"
        data["metadata_json"] = json.dumps(meta)
        np.savez_compressed(ck, **data)
        capsys.readouterr()
        rc = main(["train", "--resume", str(ck), "--iterations", "1"])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "compute_dtype" in err[0]
        # docs/API.md's way on: the state re-saved without a run record
        from repro.cli import _load_corpus, build_parser

        corpus = _load_corpus(build_parser().parse_args(["train"]))
        state_only = save_checkpoint(
            load_checkpoint_full(ck, corpus).state, tmp_path / "state.npz"
        )
        rc = main(["train", "--topics", "8", "--resume", str(state_only),
                   "--iterations", "1", "--likelihood-every", "0"])
        assert rc == 0 and "(state only)" in capsys.readouterr().out

    def test_cli_resume_v1_state_only(self, tmp_path, capsys):
        """A checkpoint saved without a run record resumes state only,
        onto a trainer built from the flags."""
        from repro.cli import _load_corpus, build_parser, main

        ck = tmp_path / "norun.npz"
        rc = main([
            "train", "--topics", "8", "--iterations", "2",
            "--likelihood-every", "0", "--checkpoint", str(ck),
        ])
        assert rc == 0
        args = build_parser().parse_args(["train", "--topics", "8"])
        corpus = _load_corpus(args)
        bundle = load_checkpoint_full(ck, corpus)
        save_checkpoint(bundle.state, ck, run=None)
        assert load_checkpoint_full(ck, corpus).run is None
        rc = main([
            "train", "--resume", str(ck), "--topics", "8",
            "--iterations", "1", "--likelihood-every", "0",
        ])
        assert rc == 0
        assert "(state only)" in capsys.readouterr().out
