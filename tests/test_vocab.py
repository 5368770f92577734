"""Unit tests for repro.corpus.vocab."""

import pytest

from repro.corpus.vocab import Vocabulary


class TestConstruction:
    def test_basic(self):
        v = Vocabulary(["cpu", "gpu", "ml"])
        assert len(v) == 3
        assert list(v) == ["cpu", "gpu", "ml"]

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Vocabulary(["a", "b", "a"])

    def test_empty_term_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Vocabulary(["a", ""])

    def test_non_string_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", 3])  # type: ignore[list-item]

    def test_empty_vocabulary_is_legal(self):
        assert len(Vocabulary([])) == 0

    def test_synthetic(self):
        v = Vocabulary.synthetic(5)
        assert list(v) == ["w0", "w1", "w2", "w3", "w4"]

    def test_synthetic_prefix(self):
        v = Vocabulary.synthetic(2, prefix="t")
        assert list(v) == ["t0", "t1"]

    def test_synthetic_negative(self):
        with pytest.raises(ValueError):
            Vocabulary.synthetic(-1)


class TestLookup:
    def test_id_of(self):
        v = Vocabulary(["x", "y"])
        assert v.ids_of(["y"]) == [1]

    def test_id_of_missing_raises(self):
        v = Vocabulary(["x"])
        with pytest.raises(KeyError):
            v.ids_of(["zzz"])

    def test_round_trip(self):
        terms = ["alpha", "beta", "gamma"]
        v = Vocabulary(terms)
        assert v.terms_of(v.ids_of(terms)) == terms

    def test_getitem(self):
        v = Vocabulary(["a", "b"])
        assert v[0] == "a" and v[1] == "b"

    def test_contains(self):
        v = Vocabulary(["a"])
        assert "a" in v and "b" not in v

    def test_equality(self):
        assert Vocabulary(["a", "b"]) == Vocabulary(["a", "b"])
        assert Vocabulary(["a"]) != Vocabulary(["b"])
