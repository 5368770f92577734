"""Tests for corpus statistics (Table 3 columns)."""

import pytest

from repro.corpus.document import Corpus
from repro.corpus.stats import corpus_stats


class TestStats:
    def test_tiny(self, tiny_corpus):
        st = corpus_stats(tiny_corpus)
        assert st.num_tokens == 18
        assert st.num_docs == 4
        assert st.num_words == 6
        assert st.mean_doc_len == pytest.approx(4.5)
        assert st.max_doc_len == 5
        assert st.num_empty_docs == 0

    def test_empty_docs_counted(self):
        c = Corpus.from_token_lists([[], [0, 0], []], num_words=1)
        st = corpus_stats(c)
        assert st.num_empty_docs == 2
        assert st.median_doc_len == 0.0

    def test_distinct_pairs(self):
        c = Corpus.from_token_lists([[0, 0, 1], [1, 1]], num_words=2)
        st = corpus_stats(c)
        assert st.distinct_doc_word_pairs == 3  # (0,0),(0,1),(1,1)

    def test_no_documents_raises(self):
        c = Corpus(doc_offsets=[0], word_ids=[], num_words=1)
        with pytest.raises(ValueError, match="no documents"):
            corpus_stats(c)

    def test_tokenless_corpus(self):
        c = Corpus.from_token_lists([[]], num_words=5)
        st = corpus_stats(c)
        assert st.num_tokens == 0
        assert st.distinct_doc_word_pairs == 0
