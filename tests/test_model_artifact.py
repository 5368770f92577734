"""Tests for the TopicModel artifact: construction, export, persistence.

Covers the acceptance criteria of the model redesign:

- ``export_model()`` works for **all five** registry algorithms;
- a **v1** npz (written by the pre-redesign ``repro train --output``)
  is a typed rejection naming the version;
- the v2 round trip preserves arrays, hyper-parameters, vocabulary and
  metadata; corrupted/unknown files are rejected.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import algorithm_names, create_trainer
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec
from repro.corpus.vocab import Vocabulary
from repro.integrity import integrity_record
from repro.analysis.topics import top_words_matrix
from repro.model import SCHEMA_VERSION, TopicModel
from repro.model.artifact import top_word_ids


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_corpus(
        small_spec(num_docs=80, num_words=120, mean_doc_len=20), seed=11
    )


def tiny_model(vocab_size: int = 6) -> TopicModel:
    phi = np.array([[5, 0, 1, 0, 0, 0], [0, 4, 0, 2, 1, 0]], dtype=np.int64)
    return TopicModel(
        phi=phi,
        topic_totals=phi.sum(axis=1),
        alpha=0.5,
        beta=0.01,
        vocabulary=Vocabulary.synthetic(vocab_size),
        metadata={"algorithm": "test", "iterations": 3},
    )


class TestConstruction:
    def test_validates_and_freezes(self):
        m = tiny_model()
        assert m.num_topics == 2 and m.num_words == 6
        assert m.num_tokens == 13
        assert not m.phi.flags.writeable
        assert not m.topic_totals.flags.writeable

    def test_rejects_mismatched_totals(self):
        phi = np.ones((2, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="row sums"):
            TopicModel(phi, np.array([3, 4]), 0.5, 0.01)

    def test_rejects_negative_counts(self):
        phi = np.array([[1, -1], [0, 2]])
        with pytest.raises(ValueError, match="negative"):
            TopicModel(phi, phi.sum(axis=1), 0.5, 0.01)

    def test_rejects_bad_hypers(self):
        phi = np.ones((2, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="positive"):
            TopicModel(phi, phi.sum(axis=1), -1.0, 0.01)

    def test_rejects_wrong_vocab_size(self):
        phi = np.ones((2, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="vocabulary"):
            TopicModel(phi, phi.sum(axis=1), 0.5, 0.01,
                       vocabulary=Vocabulary.synthetic(5))

    def test_word_given_topic_rows_normalize(self):
        p = tiny_model().word_given_topic()
        assert p.shape == (2, 6)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(p > 0)

    def test_top_words_and_terms(self):
        m = tiny_model()
        assert m.top_words(0, 2).tolist() == [0, 2]
        assert m.top_terms(1, 2) == ["w1", "w3"]

    def test_from_state_requires_surface(self):
        with pytest.raises(TypeError, match="phi"):
            TopicModel.from_state(object())


class TestExportModel:
    @pytest.mark.parametrize("name", sorted(algorithm_names()))
    def test_every_algorithm_exports(self, corpus, name):
        """The culda-only restriction is gone: all five export."""
        trainer = create_trainer(name, corpus, topics=8, seed=2,
                                 **({"workers": 3} if name == "ldastar" else {}))
        try:
            trainer.fit(2, likelihood_every=0)
            model = trainer.export_model()
        finally:
            close = getattr(trainer, "close", None)
            if callable(close):
                close()
        assert isinstance(model, TopicModel)
        assert model.num_topics == 8
        assert model.num_words == corpus.num_words
        # phi conserves the corpus token count for every algorithm
        assert model.num_tokens == corpus.num_tokens
        assert model.metadata["algorithm"] == name
        assert model.metadata["iterations"] == 2
        assert "options" in model.metadata

    def test_export_matches_state(self, corpus):
        trainer = create_trainer("plain_cgs", corpus, topics=6, seed=0)
        trainer.fit(1, likelihood_every=0)
        model = trainer.export_model()
        assert np.array_equal(model.phi, trainer.state.phi)
        assert model.alpha == trainer.state.alpha
        assert model.beta == trainer.state.beta


class TestPersistence:
    def test_v2_round_trip(self, tmp_path):
        m = tiny_model()
        path = tmp_path / "m.npz"
        m.save(path)
        back = TopicModel.load(path)
        assert np.array_equal(back.phi, m.phi)
        assert np.array_equal(back.topic_totals, m.topic_totals)
        assert back.alpha == m.alpha and back.beta == m.beta
        assert back.vocabulary == m.vocabulary
        integrity = back.metadata.pop("integrity")
        assert integrity["status"] == "verified"
        assert integrity["algorithm"] == "sha256"
        assert back.metadata == {"algorithm": "test", "iterations": 3}

    def test_v2_round_trip_without_vocab(self, tmp_path):
        phi = np.ones((3, 4), dtype=np.int64)
        m = TopicModel(phi, phi.sum(axis=1), 0.5, 0.01)
        path = tmp_path / "m.npz"
        m.save(path)
        back = TopicModel.load(path)
        assert back.vocabulary is None
        assert back.metadata.pop("integrity")["status"] == "verified"
        assert back.metadata == {}

    def test_v1_artifact_rejected(self, tmp_path):
        """A pre-redesign `repro train --output` file is refused by
        version, before any field is read."""
        m = tiny_model()
        path = tmp_path / "v1.npz"
        # the exact layout the seed-era model writer produced
        np.savez_compressed(
            path, version=1, kind="model",
            phi=m.phi.astype(np.int32), topic_totals=m.topic_totals,
            alpha=m.alpha, beta=m.beta,
            num_topics=m.num_topics, num_words=m.num_words,
        )
        with pytest.raises(ValueError, match="version 1 not supported"):
            TopicModel.load(path)

    def test_current_writer_emits_v2(self, tmp_path):
        path = tmp_path / "m.npz"
        tiny_model().save(path)
        with np.load(path, allow_pickle=False) as z:
            assert int(z["version"]) == SCHEMA_VERSION == 2
            assert str(z["kind"]) == "model"
            assert "top_word_index" not in z.files

    def test_rejects_missing_version(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(2))
        with pytest.raises(ValueError, match="no version"):
            TopicModel.load(path)

    def test_rejects_future_version(self, tmp_path):
        path = tmp_path / "m.npz"
        tiny_model().save(path)
        with np.load(path) as z:
            data = {k: z[k] for k in z.files}
        data["version"] = np.int64(99)
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="version 99"):
            TopicModel.load(path)

    def test_rejects_checkpoint_kind(self, tmp_path, corpus):
        from repro.core.snapshot import save_checkpoint

        trainer = create_trainer("culda", corpus, topics=4, seed=0)
        trainer.fit(1, likelihood_every=0)
        path = tmp_path / "ck.npz"
        save_checkpoint(trainer.state, path)
        with pytest.raises(ValueError, match="not a model artifact"):
            TopicModel.load(path)

    def test_detects_corruption(self, tmp_path):
        path = tmp_path / "m.npz"
        tiny_model().save(path)
        with np.load(path) as z:
            data = {k: z[k] for k in z.files}
        data["topic_totals"] = data["topic_totals"] + 1
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="corrupted"):
            TopicModel.load(path)

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "m.npz"
        np.savez(path, version=2, kind="model", num_words=3)
        with pytest.raises(ValueError, match="phi"):
            TopicModel.load(path)


def assert_ranked(row: np.ndarray, ids: np.ndarray) -> None:
    """``ids`` are ``row``'s top ``len(ids)`` words by the one rule:
    count descending, ties by ascending word id — the cut included."""
    rest = np.setdiff1d(np.arange(row.size), ids)
    keys = [(-int(row[i]), int(i)) for i in ids]
    assert keys == sorted(keys)
    assert all((-int(row[i]), int(i)) > keys[-1] for i in rest)


def with_legacy_index(path, index) -> dict:
    """Rewrite the artifact at ``path`` as a file written before the
    top-word index was retired: the extra ``top_word_index`` array,
    covered by the digest.  Returns the payload."""
    with np.load(path) as z:
        data = {k: z[k] for k in z.files}
    data["top_word_index"] = np.asarray(index, dtype=np.int64)
    meta = json.loads(str(data.pop("metadata_json")))
    meta["integrity"] = integrity_record(data)
    data["metadata_json"] = json.dumps(meta, default=str, sort_keys=True)
    np.savez_compressed(path, **data)
    return data


class TestTopWords:
    """One ranking rule (``repro.model.artifact.top_word_ids``) behind
    ``TopicModel.top_words`` and ``top_words_matrix``."""

    def test_all_ones_rank_by_id(self):
        phi = np.ones((3, 7), dtype=np.int64)
        m = TopicModel(phi, phi.sum(axis=1), 0.5, 0.01)
        for k in range(3):
            assert m.top_words(k, 4).tolist() == [0, 1, 2, 3]
        assert top_word_ids(phi, 9).shape == (3, 7)
        with pytest.raises(ValueError, match="n must be"):
            m.top_words(0, 0)
        with pytest.raises(IndexError):
            m.top_words(3)

    def test_tie_heavy_lists_agree_across_paths(self, tmp_path):
        """A sparse model (most counts 0, 1 or 2) ranks identically
        before save, after load and through ``top_words_matrix``."""
        corpus = generate_synthetic_corpus(
            small_spec(num_docs=40, num_words=400, mean_doc_len=10), seed=3
        )
        trainer = create_trainer("culda", corpus, topics=8, seed=0)
        trainer.fit(2, likelihood_every=0)
        model = trainer.export_model()
        model.save(tmp_path / "m.npz")
        loaded = TopicModel.load(tmp_path / "m.npz")
        matrix = top_words_matrix(trainer.state, 10)
        for k in range(model.num_topics):
            before = model.top_words(k, 10)
            assert_ranked(model.phi[k], before)
            assert loaded.top_words(k, 10).tolist() == before.tolist()
            assert matrix[k].tolist() == before.tolist()


class TestTopWordIndex:
    """The top-word index of a whole model is ``top_word_ids(phi, n)``,
    computed on demand.  Files written before the serialized index was
    retired carry a ``top_word_index`` array: the digest still covers
    it, and the loader never reads it."""

    def test_build_shape_and_order(self):
        m = tiny_model()
        idx = top_word_ids(m.phi, 4)
        assert idx.shape == (2, 4)
        counts = np.take_along_axis(np.asarray(m.phi), idx, axis=1)
        assert np.all(np.diff(counts, axis=1) <= 0)
        for k in range(m.num_topics):
            assert idx[k].tolist() == m.top_words(k, 4).tolist()

    def test_width_validation(self):
        m = tiny_model()
        with pytest.raises(ValueError, match="n must be"):
            top_word_ids(m.phi, 0)
        with pytest.raises(ValueError, match="n must be"):
            m.top_words(0, 0)

    def test_equal_count_word_swap_is_accepted(self, tmp_path):
        """A legacy index listing a tied word in another order loads;
        ``top_words`` follows the rule, not the file."""
        phi = np.array([[5, 3, 3, 0], [1, 2, 3, 4]], dtype=np.int64)
        m = TopicModel(phi=phi, topic_totals=phi.sum(axis=1),
                       alpha=0.5, beta=0.01)
        path = tmp_path / "m.npz"
        m.save(path)
        with_legacy_index(path, [[0, 2], [3, 2]])
        loaded = TopicModel.load(path)
        assert np.array_equal(loaded.phi, phi)
        assert loaded.top_words(0, 2).tolist() == [0, 1]
        assert loaded.top_words(1, 3).tolist() == [3, 2, 1]

    def test_corrupted_index_rejected(self, tmp_path):
        path = tmp_path / "m.npz"
        tiny_model().save(path)
        data = with_legacy_index(path, [[0, 2], [1, 3]])
        data["top_word_index"] = np.array([[99, 0], [1, 2]])  # not digested
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="corrupted"):
            TopicModel.load(path)


class TestLineage:
    """Model-generation lineage: who trained it, from what, when."""

    def test_export_attaches_lineage(self, corpus):
        trainer = create_trainer("culda", corpus, topics=6, seed=0)
        trainer.fit(1, likelihood_every=0)
        model = trainer.export_model()
        lin = model.lineage
        assert lin is not None
        assert model.generation == lin["generation"]
        assert lin["parent"] is None
        assert lin["created_at"]  # ISO timestamp
        assert model.describe()["lineage"] == lin

    def test_parent_threads_through_export(self, corpus):
        t1 = create_trainer("culda", corpus, topics=6, seed=0)
        t1.fit(1, likelihood_every=0)
        m1 = t1.export_model()
        t2 = create_trainer("culda", corpus, topics=6, seed=1)
        t2.fit(1, likelihood_every=0)
        m2 = t2.export_model(parent=m1.generation)
        assert m2.lineage["parent"] == m1.generation
        assert m2.generation != m1.generation

    def test_lineage_survives_save_load(self, corpus, tmp_path):
        trainer = create_trainer("culda", corpus, topics=6, seed=0)
        trainer.fit(1, likelihood_every=0)
        model = trainer.export_model()
        model.save(tmp_path / "m.npz")
        back = TopicModel.load(tmp_path / "m.npz")
        assert back.lineage == model.lineage
        assert back.generation == model.generation

    def test_hand_built_model_has_no_lineage(self):
        m = tiny_model()
        assert m.lineage is None
        assert m.generation is None
        assert m.describe()["lineage"] is None

    def test_generations_are_unique(self):
        from repro.model import make_lineage

        a = make_lineage()
        b = make_lineage(parent=a["generation"])
        assert a["generation"] != b["generation"]
        assert b["parent"] == a["generation"]
