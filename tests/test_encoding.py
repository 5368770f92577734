"""Tests for device chunk encoding (word-first sort, maps, block plan)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.corpus.encoding import (
    build_block_plan,
    encode_chunk,
    topic_dtype_for,
)
from repro.corpus.partition import partition_by_tokens
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec


@pytest.fixture(scope="module")
def encoded(tiny_corpus_module=None):
    from repro.corpus.synthetic import generate_synthetic_corpus

    c = generate_synthetic_corpus(
        small_spec(num_docs=50, num_words=120, mean_doc_len=25), seed=11
    )
    spec = partition_by_tokens(c, 2)[0]
    return c, spec, encode_chunk(c, spec)


class TestEncoding:
    def test_validates(self, encoded):
        _, _, dc = encoded
        dc.validate()

    def test_word_first_order(self, encoded):
        _, _, dc = encoded
        assert np.all(np.diff(dc.token_words) >= 0)

    def test_token_multiset_preserved(self, encoded):
        c, spec, dc = encoded
        original = c.word_ids[spec.token_lo : spec.token_hi]
        assert np.array_equal(np.sort(original), dc.token_words)

    def test_doc_word_map_groups_by_doc(self, encoded):
        _, _, dc = encoded
        docs_in_order = dc.token_docs[dc.doc_order]
        assert np.all(np.diff(docs_in_order) >= 0)

    def test_doc_offsets_match_lengths(self, encoded):
        c, spec, dc = encoded
        lengths = np.diff(c.doc_offsets[spec.doc_lo : spec.doc_hi + 1])
        assert np.array_equal(np.diff(dc.doc_offsets), lengths)

    def test_nbytes_counts_topics(self, encoded):
        _, _, dc = encoded
        d16 = dc.nbytes(np.dtype(np.uint16))
        d32 = dc.nbytes(np.dtype(np.int32))
        assert d32 - d16 == 2 * dc.num_tokens

    def test_inconsistent_spec_rejected(self, encoded):
        c, spec, _ = encoded
        from dataclasses import replace

        bad = replace(spec, token_lo=spec.token_lo + 1)
        with pytest.raises(ValueError, match="inconsistent"):
            encode_chunk(c, bad)


class TestBlockPlan:
    def test_blocks_cover_all_tokens(self, encoded):
        _, _, dc = encoded
        plan = dc.block_plan
        spans = [(plan.starts[i], plan.ends[i]) for i in range(plan.num_blocks)]
        covered = sorted(spans)
        # contiguous, disjoint cover of [0, n)
        assert covered[0][0] == 0
        assert covered[-1][1] == dc.num_tokens
        for (_a, b), (c2, _) in zip(covered, covered[1:]):
            assert b == c2

    def test_blocks_respect_word_boundaries(self, encoded):
        _, _, dc = encoded
        plan = dc.block_plan
        for i in range(plan.num_blocks):
            words = dc.token_words[plan.starts[i] : plan.ends[i]]
            assert np.all(words == plan.words[i])

    def test_heavy_words_split(self):
        from repro.corpus.document import Corpus
        from repro.corpus.partition import ChunkSpec

        docs = [[0] * 100 + [1] * 3]
        c = Corpus.from_token_lists(docs, num_words=2)
        spec = ChunkSpec(0, 0, 1, 0, 103)
        dc = encode_chunk(c, spec, tokens_per_block=32)
        # word 0 has 100 tokens -> 4 blocks of <=32; word 1 -> 1 block.
        assert dc.block_plan.num_blocks == 5

    def test_heavy_blocks_first(self):
        """Figure 6: largest spans get the smallest block ids."""
        word_offsets = np.array([0, 100, 103, 110], dtype=np.int64)
        plan = build_block_plan(word_offsets, tokens_per_block=1024)
        sizes = list(plan.ends - plan.starts)
        assert sizes == sorted(sizes, reverse=True)

    def test_bad_tokens_per_block(self):
        with pytest.raises(ValueError):
            build_block_plan(np.array([0, 5], dtype=np.int64), tokens_per_block=0)


class TestTopicDtype:
    def test_compressed_16bit(self):
        assert topic_dtype_for(1024, compress=True) == np.dtype(np.uint16)
        assert topic_dtype_for(65536, compress=True) == np.dtype(np.uint16)

    def test_too_many_topics_falls_back(self):
        assert topic_dtype_for(65537, compress=True) == np.dtype(np.int32)

    def test_uncompressed(self):
        assert topic_dtype_for(64, compress=False) == np.dtype(np.int32)

    def test_invalid(self):
        with pytest.raises(ValueError):
            topic_dtype_for(0)


class TestProperties:
    @given(st.integers(min_value=0, max_value=5000), st.integers(min_value=1, max_value=4))
    def test_encode_always_valid(self, seed, nchunks):
        c = generate_synthetic_corpus(
            small_spec(num_docs=40, num_words=50, mean_doc_len=15), seed=seed
        )
        for spec in partition_by_tokens(c, nchunks):
            dc = encode_chunk(c, spec)
            dc.validate()
            assert dc.num_tokens == spec.num_tokens
