"""Unit and property tests for repro.corpus.document."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.corpus.document import Corpus
from repro.corpus.vocab import Vocabulary

token_lists = st.lists(
    st.lists(st.integers(min_value=0, max_value=9), max_size=20),
    min_size=1,
    max_size=15,
)


class TestConstruction:
    def test_from_token_lists(self, tiny_corpus):
        assert tiny_corpus.num_docs == 4
        assert tiny_corpus.num_words == 6
        assert tiny_corpus.num_tokens == 18

    def test_offsets_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            Corpus(np.array([1, 2]), np.array([0], dtype=np.int32), 2)

    def test_offsets_monotone(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            Corpus(np.array([0, 3, 1]), np.zeros(1, dtype=np.int32), 2)

    def test_offsets_end_matches_tokens(self):
        with pytest.raises(ValueError, match="does not match"):
            Corpus(np.array([0, 5]), np.zeros(3, dtype=np.int32), 2)

    def test_word_id_out_of_range(self):
        with pytest.raises(ValueError, match="word ids"):
            Corpus.from_token_lists([[0, 7]], num_words=3)

    def test_vocab_size_mismatch(self):
        with pytest.raises(ValueError, match="vocabulary size"):
            Corpus.from_token_lists([[0]], num_words=2, vocabulary=Vocabulary(["a"]))

    def test_empty_documents_allowed(self):
        c = Corpus.from_token_lists([[], [0], []], num_words=1)
        assert c.num_docs == 3
        assert c.doc_length(0) == 0
        assert c.doc_length(1) == 1

    def test_from_bow_expands_counts(self):
        c = Corpus.from_bow([(0, 1, 3), (1, 0, 2)], num_docs=2, num_words=2)
        assert c.num_tokens == 5
        assert c.doc_length(0) == 3
        assert list(c.document(0).word_ids) == [1, 1, 1]

    def test_from_bow_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="positive"):
            Corpus.from_bow([(0, 0, 0)], num_docs=1, num_words=1)

    def test_from_bow_rejects_bad_doc(self):
        with pytest.raises(ValueError, match="doc ids"):
            Corpus.from_bow([(5, 0, 1)], num_docs=2, num_words=1)

    def test_from_bow_empty(self):
        c = Corpus.from_bow([], num_docs=2, num_words=3)
        assert c.num_tokens == 0 and c.num_docs == 2


class TestAccessors:
    def test_doc_lengths(self, tiny_corpus):
        assert list(tiny_corpus.doc_lengths()) == [5, 4, 5, 4]

    def test_document_view(self, tiny_corpus):
        d = tiny_corpus.document(1)
        assert list(d.word_ids) == [3, 4, 3, 3]
        assert len(d) == 4

    def test_document_out_of_range(self, tiny_corpus):
        with pytest.raises(IndexError):
            tiny_corpus.document(4)

    def test_token_doc_ids(self, tiny_corpus):
        ids = tiny_corpus.token_doc_ids()
        assert ids.shape[0] == tiny_corpus.num_tokens
        assert list(np.bincount(ids)) == [5, 4, 5, 4]

    def test_subset(self, tiny_corpus):
        sub = tiny_corpus.subset(1, 3)
        assert sub.num_docs == 2
        assert sub.num_tokens == 9
        assert list(sub.document(0).word_ids) == [3, 4, 3, 3]

    def test_subset_bad_range(self, tiny_corpus):
        with pytest.raises(ValueError):
            tiny_corpus.subset(3, 1)


class TestProperties:
    @given(token_lists)
    def test_token_count_conserved(self, docs):
        c = Corpus.from_token_lists(docs, num_words=10)
        assert c.num_tokens == sum(len(d) for d in docs)
        assert list(c.doc_lengths()) == [len(d) for d in docs]

    @given(token_lists)
    def test_documents_round_trip(self, docs):
        c = Corpus.from_token_lists(docs, num_words=10)
        for i, d in enumerate(docs):
            assert list(c.document(i).word_ids) == d

    @given(token_lists)
    def test_subset_concatenation_covers(self, docs):
        c = Corpus.from_token_lists(docs, num_words=10)
        mid = c.num_docs // 2
        left, right = c.subset(0, mid), c.subset(mid, c.num_docs)
        assert left.num_tokens + right.num_tokens == c.num_tokens
