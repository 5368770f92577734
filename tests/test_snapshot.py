"""Tests for checkpoint persistence."""

import numpy as np
import pytest

from repro.core import CuLdaTrainer, TrainerConfig
from repro.core.snapshot import load_checkpoint_full, save_checkpoint
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec
from repro.model import TopicModel


@pytest.fixture(scope="module")
def trained(request):
    corpus = generate_synthetic_corpus(
        small_spec(num_docs=100, num_words=200, mean_doc_len=30), seed=6
    )
    cfg = TrainerConfig(num_topics=12, num_gpus=2, seed=1)
    t = CuLdaTrainer(corpus, cfg)
    t.train(5, compute_likelihood_every=0)
    return corpus, cfg, t


class TestCheckpoint:
    def test_resume_reproduces_state(self, trained, tmp_path):
        corpus, cfg, t = trained
        path = tmp_path / "ck.npz"
        save_checkpoint(t.state, path)
        state = load_checkpoint_full(path, corpus).state
        assert np.array_equal(state.phi, t.state.phi)
        for a, b in zip(state.chunks, t.state.chunks):
            assert np.array_equal(a.topics, b.topics)
        state.validate()

    def test_wrong_corpus_detected(self, trained, tmp_path):
        corpus, cfg, t = trained
        path = tmp_path / "ck.npz"
        save_checkpoint(t.state, path)
        other = generate_synthetic_corpus(
            small_spec(num_docs=100, num_words=200, mean_doc_len=30), seed=99
        )
        with pytest.raises(ValueError):
            load_checkpoint_full(path, other)

    def test_wrong_vocab_detected(self, trained, tmp_path):
        corpus, cfg, t = trained
        path = tmp_path / "ck.npz"
        save_checkpoint(t.state, path)
        other = generate_synthetic_corpus(
            small_spec(num_docs=100, num_words=300, mean_doc_len=30), seed=6
        )
        with pytest.raises(ValueError, match="V="):
            load_checkpoint_full(path, other)

    def test_rejects_model_kind(self, trained, tmp_path):
        corpus, _, t = trained
        path = tmp_path / "m.npz"
        TopicModel.from_state(t.state).save(path)
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint_full(path, corpus)

    def test_training_continues_after_resume(self, trained, tmp_path):
        """A resumed state trains identically to a never-saved one."""
        corpus, cfg, t = trained
        path = tmp_path / "ck.npz"
        save_checkpoint(t.state, path)
        state = load_checkpoint_full(path, corpus).state
        from repro.core.likelihood import log_likelihood_per_token

        before = log_likelihood_per_token(state)
        # one more sampling pass directly on the restored chunks
        from repro.core.rng import RngPool
        from repro.core.sampler import sample_chunk
        from repro.core.updates import apply_phi_update

        pool = RngPool(cfg.seed)
        cs = state.chunks[0]
        res = sample_chunk(
            cs.chunk, cs.topics, cs.theta, state.phi, state.topic_totals,
            state.alpha, state.beta, pool.chunk_stream(99, 0),
        )
        apply_phi_update(
            state.phi, state.topic_totals, cs.chunk.token_words,
            cs.topics, res.new_topics,
        )
        cs.topics = res.new_topics
        cs.rebuild_theta(cfg.num_topics)
        state.validate()
        after = log_likelihood_per_token(state)
        assert np.isfinite(after) and after != before


class TestAtomicTextHelpers:
    """atomic_write_text / atomic_write_json: tmp sibling + os.replace."""

    def test_write_text_replaces_atomically(self, tmp_path):
        from repro.core.snapshot import atomic_write_text

        path = tmp_path / "note.txt"
        path.write_text("old")
        out = atomic_write_text(path, "new contents\n")
        assert out == path
        assert path.read_text() == "new contents\n"
        # No tmp sibling left behind.
        assert list(tmp_path.iterdir()) == [path]

    def test_write_text_failure_leaves_target_untouched(self, tmp_path,
                                                        monkeypatch):
        import os as _os

        from repro.core import snapshot

        path = tmp_path / "note.txt"
        path.write_text("precious")

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(snapshot.os, "replace", boom)
        with pytest.raises(OSError, match="disk full"):
            snapshot.atomic_write_text(path, "half-written")
        monkeypatch.undo()
        assert path.read_text() == "precious"
        assert list(tmp_path.iterdir()) == [path]  # tmp cleaned up

    def test_write_json_bytes_are_content_deterministic(self, tmp_path):
        from repro.core.snapshot import atomic_write_json

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        # Same content, different key insertion order -> same bytes.
        atomic_write_json(a, {"z": 1, "a": [1, 2], "m": {"y": 0, "x": 1}})
        atomic_write_json(b, {"a": [1, 2], "m": {"x": 1, "y": 0}, "z": 1})
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().endswith("\n")

    def test_write_json_round_trips(self, tmp_path):
        import json as _json

        from repro.core.snapshot import atomic_write_json

        obj = {"kind": "corpus-store", "shards": [{"name": "s", "n": 3}]}
        atomic_write_json(tmp_path / "m.json", obj)
        assert _json.loads((tmp_path / "m.json").read_text()) == obj
