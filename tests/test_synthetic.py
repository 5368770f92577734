"""Tests for the synthetic corpus generator (Table 3 shapes)."""

import numpy as np
import pytest

from repro.corpus.stats import corpus_stats
from repro.corpus.synthetic import (
    NYTIMES_LIKE,
    PUBMED_LIKE,
    SyntheticSpec,
    generate_labelled_corpus,
    generate_synthetic_corpus,
    small_spec,
)


class TestSpec:
    def test_presets_match_table3(self):
        assert NYTIMES_LIKE.num_docs == 299_752
        assert NYTIMES_LIKE.num_words == 101_636
        assert PUBMED_LIKE.num_docs == 8_200_000
        assert PUBMED_LIKE.num_words == 141_043
        # Section 7.1: mean document lengths 332 vs 92.
        assert NYTIMES_LIKE.mean_doc_len > 3 * PUBMED_LIKE.mean_doc_len

    def test_scaled_preserves_ratio(self):
        s = NYTIMES_LIKE.scaled(0.01)
        ratio_full = NYTIMES_LIKE.num_docs / NYTIMES_LIKE.num_words
        ratio_scaled = s.num_docs / s.num_words
        assert ratio_scaled == pytest.approx(ratio_full, rel=0.01)
        assert s.mean_doc_len == NYTIMES_LIKE.mean_doc_len  # intensive

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            NYTIMES_LIKE.scaled(0)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            SyntheticSpec("x", num_docs=0, num_words=10, mean_doc_len=5)
        with pytest.raises(ValueError):
            SyntheticSpec("x", num_docs=1, num_words=1, mean_doc_len=5)
        with pytest.raises(ValueError):
            SyntheticSpec("x", num_docs=1, num_words=10, mean_doc_len=0)
        with pytest.raises(ValueError):
            SyntheticSpec("x", num_docs=1, num_words=10, mean_doc_len=5, topic_alpha=0)

    def test_approx_tokens(self):
        s = small_spec(num_docs=100, mean_doc_len=50.0)
        assert s.approx_tokens == 5000


class TestGeneration:
    def test_deterministic(self):
        spec = small_spec()
        a = generate_synthetic_corpus(spec, seed=5)
        b = generate_synthetic_corpus(spec, seed=5)
        assert np.array_equal(a.word_ids, b.word_ids)
        assert np.array_equal(a.doc_offsets, b.doc_offsets)

    def test_different_seeds_differ(self):
        spec = small_spec()
        a = generate_synthetic_corpus(spec, seed=1)
        b = generate_synthetic_corpus(spec, seed=2)
        assert not np.array_equal(a.word_ids, b.word_ids)

    def test_shape_statistics(self):
        spec = small_spec(num_docs=500, num_words=400, mean_doc_len=60.0)
        c = generate_synthetic_corpus(spec, seed=0)
        st = corpus_stats(c)
        assert st.num_docs == 500
        assert st.num_words == 400
        # log-normal mean should land near target (loose band).
        assert 0.6 * 60 < st.mean_doc_len < 1.6 * 60

    def test_word_ids_in_range(self):
        c = generate_synthetic_corpus(small_spec(), seed=0)
        assert c.word_ids.min() >= 0
        assert c.word_ids.max() < c.num_words

    def test_with_vocabulary(self):
        c = generate_synthetic_corpus(small_spec(num_words=50), seed=0, with_vocabulary=True)
        assert c.vocabulary is not None
        assert len(c.vocabulary) == 50

    def test_zipf_like_skew(self):
        """Sparse Dirichlet topics must concentrate word mass (real-text-like)."""
        c = generate_synthetic_corpus(
            small_spec(num_docs=400, num_words=500, mean_doc_len=80), seed=0
        )
        freq = np.sort(np.bincount(c.word_ids, minlength=c.num_words))[::-1]
        top10_share = freq[:50].sum() / freq.sum()
        assert top10_share > 0.3  # heavily skewed, unlike uniform (0.1)

    def test_labelled_corpus_consistent(self):
        c, z = generate_labelled_corpus(small_spec(num_topics=6), seed=3)
        assert z.shape[0] == c.num_tokens
        assert z.min() >= 0 and z.max() < 6

    def test_labelled_topics_explain_words(self):
        """Tokens of one generative topic should reuse few words."""
        c, z = generate_labelled_corpus(
            small_spec(num_docs=300, num_words=400, mean_doc_len=60, num_topics=5),
            seed=1,
        )
        for k in range(5):
            words_k = np.unique(c.word_ids[z == k])
            # a Dir(0.01) topic puts ~all mass on a small word subset
            assert words_k.size < 0.8 * c.num_words
