"""Artifact integrity: digests round-trip, corruption is caught at load.

The integrity half of the self-healing serving PR:

- every artifact the repo writes (model npz, checkpoint npz) embeds a
  sha256 digest over its payload arrays; loaders recompute and compare;
- the round trip export -> save -> load -> verified holds for **all
  five** registry algorithms;
- an edited payload, a truncated or a byte-flipped file is a typed
  ``ValueError`` at load time (exit 2 from the CLI) and a ``corrupt``
  report from the offline checker — never a silently mis-served model;
- a file without a digest record is rejected like a corrupted one, so
  stripping the digest cannot smuggle an edited payload past the check;
- the ``artifact_corrupt`` chaos hook drives the same detection path
  without touching the file on disk.
"""

from __future__ import annotations

import gc
import json
import struct
import sys
import warnings
import zipfile

import numpy as np
import pytest

from repro import faults
from repro.api import algorithm_names, create_trainer
from repro.cli import main
from repro.core.snapshot import load_checkpoint_full, save_checkpoint
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec
from repro.integrity import (
    DIGEST_ALGORITHM,
    digest_arrays,
    integrity_record,
    read_npz,
    verify_artifact,
    verify_payload,
)
from repro.model import TopicModel


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_corpus(
        small_spec(num_docs=60, num_words=90, mean_doc_len=18), seed=13
    )


@pytest.fixture(autouse=True)
def disarm():
    faults.reset()
    yield
    faults.reset()


def _rewrite(path, mutate):
    """Load an npz, apply ``mutate(data)``, write it back (digest kept)."""
    with np.load(path, allow_pickle=False) as z:
        data = {k: z[k] for k in z.files}
    mutate(data)
    np.savez_compressed(path, **data)


def _truncate(path):
    """Cut the file to half its length, as a torn copy would."""
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])


def _flip_byte(path, member="phi.npy"):
    """Flip one byte in the middle of ``member``'s compressed bytes."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(member)
    raw = bytearray(path.read_bytes())
    # local file header: 30 fixed bytes, then the name and extra fields
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    start = info.header_offset + 30 + name_len + extra_len
    raw[start + info.compress_size // 2] ^= 0xFF
    path.write_bytes(bytes(raw))


def _tamper_without_digest(src, dst):
    """Write ``src`` to ``dst`` with one phi count added, every invariant
    kept (totals, top-word index), and no ``metadata_json`` — so only
    the missing digest gives the edit away."""
    m = TopicModel.load(src)
    phi = m.phi.copy()
    phi[0, 0] += 1
    TopicModel(
        phi=phi, topic_totals=phi.sum(axis=1), alpha=m.alpha, beta=m.beta,
        vocabulary=m.vocabulary,
    ).save(dst)
    _rewrite(dst, lambda data: data.pop("metadata_json"))
    return dst


class TestDigest:
    def test_deterministic_and_order_insensitive(self):
        a = {"x": np.arange(6), "y": np.ones((2, 3))}
        b = {"y": np.ones((2, 3)), "x": np.arange(6)}
        assert digest_arrays(a) == digest_arrays(b)

    def test_sensitive_to_values_names_dtype_and_shape(self):
        base = {"x": np.arange(6, dtype=np.int64)}
        assert digest_arrays(base) != digest_arrays(
            {"x": np.arange(6, dtype=np.int32)}
        )
        assert digest_arrays(base) != digest_arrays(
            {"y": np.arange(6, dtype=np.int64)}
        )
        assert digest_arrays(base) != digest_arrays(
            {"x": np.arange(6, dtype=np.int64).reshape(2, 3)}
        )
        flipped = np.arange(6, dtype=np.int64)
        flipped[0] += 1
        assert digest_arrays(base) != digest_arrays({"x": flipped})

    def test_metadata_json_is_excluded(self):
        arrays = {"x": np.arange(3)}
        with_meta = {"x": np.arange(3), "metadata_json": "{}"}
        assert digest_arrays(arrays) == digest_arrays(with_meta)

    def test_verify_payload_round_trip(self):
        arrays = {"x": np.arange(4)}
        rec = integrity_record(arrays)
        assert rec["algorithm"] == DIGEST_ALGORITHM
        arrays["metadata_json"] = json.dumps({"integrity": rec, "k": 1})
        out = verify_payload(arrays)
        assert out["k"] == 1
        assert out["integrity"]["status"] == "verified"
        assert out["integrity"]["digest"] == rec["digest"]

    def test_verify_payload_unverified_without_record(self):
        """No metadata, or metadata without a sha256 record, is refused."""
        with pytest.raises(ValueError, match="no integrity digest"):
            verify_payload({"x": np.arange(4)})
        with pytest.raises(ValueError, match="no integrity digest"):
            verify_payload({"x": np.arange(4), "metadata_json": "{}"})
        with pytest.raises(ValueError, match="bad metadata"):
            verify_payload({"x": np.arange(4), "metadata_json": "{nope"})

    def test_verify_payload_mismatch_raises(self):
        arrays = {"x": np.arange(4)}
        rec = integrity_record(arrays)
        arrays["metadata_json"] = json.dumps({"integrity": rec})
        arrays["x"] = np.arange(4) + 1
        with pytest.raises(ValueError, match="digest mismatch"):
            verify_payload(arrays)


class TestModelArtifactIntegrity:
    @pytest.mark.parametrize("name", algorithm_names())
    def test_digest_round_trips_for_every_algorithm(
        self, corpus, tmp_path, name
    ):
        """Acceptance: export -> save -> load -> verify, all five."""
        trainer = create_trainer(name, corpus, topics=6, seed=3)
        trainer.fit(1, likelihood_every=0)
        path = tmp_path / f"{name}.npz"
        trainer.export_model().save(path)
        report = verify_artifact(path)
        assert report["status"] == "verified", report
        assert report["kind"] == "model"
        assert report["digest"] == report["stored_digest"]
        back = TopicModel.load(path)
        assert back.metadata["integrity"]["status"] == "verified"

    def test_bit_flip_is_rejected_at_load(self, corpus, tmp_path):
        trainer = create_trainer("culda", corpus, topics=6, seed=3)
        trainer.fit(1, likelihood_every=0)
        path = tmp_path / "m.npz"
        trainer.export_model().save(path)

        def flip(data):
            phi = data["phi"].copy()
            phi.flat[0] += 1
            data["phi"] = phi

        _rewrite(path, flip)
        assert verify_artifact(path)["status"] == "corrupt"
        with pytest.raises(ValueError, match="corrupted"):
            TopicModel.load(path)

    def test_artifact_corrupt_fault_hook(self, corpus, tmp_path):
        """The chaos hook flips a count post-read; the real digest
        verification must catch it exactly like on-disk rot."""
        trainer = create_trainer("culda", corpus, topics=6, seed=3)
        trainer.fit(1, likelihood_every=0)
        path = tmp_path / "m.npz"
        trainer.export_model().save(path)
        faults.install(f"artifact_corrupt@op=load,path={path.name}")
        with pytest.raises(ValueError, match="corrupted"):
            TopicModel.load(path)
        # times=1 default: the next load is healthy
        assert TopicModel.load(path).metadata["integrity"][
            "status"
        ] == "verified"

    def test_unreadable_file_reports_corrupt(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not an npz at all")
        report = verify_artifact(path)
        assert report["status"] == "corrupt"
        assert "unreadable" in report["detail"]

    def test_pre_digest_file_reports_corrupt(self, tmp_path):
        path = tmp_path / "old.npz"
        np.savez_compressed(
            path, version=1, kind="model", phi=np.ones((2, 3), np.int64),
            topic_totals=np.full(2, 3), alpha=0.5, beta=0.01,
            num_topics=2, num_words=3,
        )
        report = verify_artifact(path)
        assert report["status"] == "corrupt"
        assert "no integrity digest" in report["detail"]
        assert main(["verify-artifact", str(path)]) == 1

    def test_garbage_metadata_reports_corrupt(self, corpus, tmp_path):
        trainer = create_trainer("culda", corpus, topics=6, seed=3)
        trainer.fit(1, likelihood_every=0)
        path = tmp_path / "m.npz"
        trainer.export_model().save(path)
        _rewrite(
            path,
            lambda data: data.update(
                metadata_json=np.asarray("{not json")
            ),
        )
        report = verify_artifact(path)
        assert report["status"] == "corrupt"
        assert "bad metadata" in report["detail"]


class TestCheckpointIntegrity:
    def _checkpoint(self, corpus, tmp_path):
        trainer = create_trainer("culda", corpus, topics=6, seed=5)
        trainer.fit(2, likelihood_every=0)
        path = tmp_path / "ck.npz"
        return save_checkpoint(
            trainer.state, path, vocabulary=corpus.vocabulary
        )

    def test_checkpoint_digest_round_trips(self, corpus, tmp_path):
        written = self._checkpoint(corpus, tmp_path)
        report = verify_artifact(written)
        assert report["status"] == "verified", report
        assert report["kind"] == "checkpoint"
        bundle = load_checkpoint_full(written, corpus)
        assert bundle.integrity["status"] == "verified"

    def test_corrupt_chunk_rejected_at_load(self, corpus, tmp_path):
        written = self._checkpoint(corpus, tmp_path)

        def flip(data):
            topics = data["chunk0_topics"].copy()
            topics.flat[0] = (topics.flat[0] + 1) % 6
            data["chunk0_topics"] = topics

        _rewrite(written, flip)
        assert verify_artifact(written)["status"] == "corrupt"
        with pytest.raises(ValueError, match="checkpoint corrupted"):
            load_checkpoint_full(written, corpus)

    def test_digest_covers_every_chunk(self, corpus, tmp_path):
        """The metadata is written after all chunk arrays exist, so the
        digest spans the whole payload — a flip in the *last* chunk is
        caught too."""
        trainer = create_trainer(
            "culda", corpus, topics=6, seed=5, gpus=2, chunks_per_gpu=2
        )
        trainer.fit(2, likelihood_every=0)
        written = save_checkpoint(
            trainer.state, tmp_path / "multi.npz",
            vocabulary=corpus.vocabulary,
        )
        with np.load(written, allow_pickle=False) as z:
            num_chunks = int(z["num_chunks"])
            meta = json.loads(str(z["metadata_json"]))
        assert num_chunks >= 2
        assert meta["integrity"]["algorithm"] == DIGEST_ALGORITHM
        last = f"chunk{num_chunks - 1}_topics"

        def flip(data):
            topics = data[last].copy()
            topics.flat[0] = (topics.flat[0] + 1) % 6
            data[last] = topics

        _rewrite(written, flip)
        assert verify_artifact(written)["status"] == "corrupt"


class TestUnreadableAndUndigestedFiles:
    """Torn, byte-flipped and digest-stripped files are typed rejections
    at every reader: the library loaders, the CLI and the offline check."""

    @pytest.fixture()
    def model_path(self, corpus, tmp_path):
        trainer = create_trainer("culda", corpus, topics=6, seed=3)
        trainer.fit(1, likelihood_every=0)
        path = tmp_path / "m.npz"
        trainer.export_model().save(path)
        return path

    @pytest.fixture()
    def checkpoint_path(self, corpus, tmp_path):
        trainer = create_trainer("culda", corpus, topics=6, seed=5)
        trainer.fit(1, likelihood_every=0)
        return save_checkpoint(trainer.state, tmp_path / "ck.npz")

    @pytest.mark.parametrize("damage", [_truncate, _flip_byte])
    def test_damaged_model_raises_value_error(self, model_path, damage):
        damage(model_path)
        with pytest.raises(ValueError, match="unreadable"):
            TopicModel.load(model_path)
        assert verify_artifact(model_path)["status"] == "corrupt"

    @pytest.mark.parametrize("damage", [_truncate, _flip_byte])
    def test_damaged_checkpoint_raises_value_error(
        self, corpus, checkpoint_path, damage
    ):
        damage(checkpoint_path)
        with pytest.raises(ValueError, match="unreadable"):
            load_checkpoint_full(checkpoint_path, corpus)
        assert verify_artifact(checkpoint_path)["status"] == "corrupt"

    def test_truncated_archive_closes_its_handle(self, model_path, monkeypatch):
        """A leaked handle warns from its ``__del__``, where an error
        filter turns the warning into an unraisable exception."""
        _truncate(model_path)
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(ValueError, match="unreadable"):
                read_npz(model_path)
            gc.collect()
        assert [u.exc_type for u in unraisable] == []

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TopicModel.load(tmp_path / "absent.npz")

    @pytest.mark.parametrize("damage", [_truncate, _flip_byte])
    @pytest.mark.parametrize("command", ["topics", "infer"])
    def test_cli_exits_two_on_damaged_model(
        self, model_path, damage, command, capsys
    ):
        damage(model_path)
        argv = [command, "--model", str(model_path)]
        if command == "infer":
            argv += ["--sweeps", "2", "--burn-in", "1"]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_stripped_digest_model_is_rejected(
        self, model_path, tmp_path, capsys
    ):
        bad = _tamper_without_digest(model_path, tmp_path / "bad.npz")
        with pytest.raises(ValueError, match="no integrity digest"):
            TopicModel.load(bad)
        capsys.readouterr()
        assert main(["verify-artifact", str(bad)]) == 1
        assert "corrupt" in capsys.readouterr().out

    def test_stripped_digest_checkpoint_is_rejected(
        self, corpus, checkpoint_path
    ):
        _rewrite(checkpoint_path, lambda data: data.pop("metadata_json"))
        with pytest.raises(ValueError, match="no integrity digest"):
            load_checkpoint_full(checkpoint_path, corpus)
