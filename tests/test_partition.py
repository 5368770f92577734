"""Unit and property tests for token-balanced partitioning (Section 4)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.corpus.document import Corpus
from repro.corpus.partition import assign_round_robin, partition_by_tokens
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec


class TestPartition:
    def test_single_chunk(self, tiny_corpus):
        chunks = partition_by_tokens(tiny_corpus, 1)
        assert len(chunks) == 1
        assert chunks[0].num_tokens == tiny_corpus.num_tokens
        assert chunks[0].num_docs == tiny_corpus.num_docs

    def test_covers_all_documents(self, small_corpus):
        chunks = partition_by_tokens(small_corpus, 5)
        assert chunks[0].doc_lo == 0
        assert chunks[-1].doc_hi == small_corpus.num_docs
        for a, b in zip(chunks, chunks[1:]):
            assert a.doc_hi == b.doc_lo  # contiguous, disjoint

    def test_token_ranges_consistent(self, small_corpus):
        for c in partition_by_tokens(small_corpus, 4):
            assert c.token_lo == small_corpus.doc_offsets[c.doc_lo]
            assert c.token_hi == small_corpus.doc_offsets[c.doc_hi]

    def test_balanced_by_tokens_not_docs(self):
        """One giant doc + many small: chunks must balance token counts."""
        docs = [[0] * 500] + [[1] * 5 for _ in range(100)]
        c = Corpus.from_token_lists(docs, num_words=2)
        chunks = partition_by_tokens(c, 2)
        sizes = [ch.num_tokens for ch in chunks]
        # Perfect balance is 500/500; doc-count balance would be ~502/498
        # docs but ~503 vs 497 tokens is fine; doc-balanced would be terrible.
        assert max(sizes) / min(sizes) < 1.1

    def test_too_many_chunks(self, tiny_corpus):
        with pytest.raises(ValueError, match="cannot make"):
            partition_by_tokens(tiny_corpus, 5)

    def test_zero_chunks(self, tiny_corpus):
        with pytest.raises(ValueError, match=">= 1"):
            partition_by_tokens(tiny_corpus, 0)

    def test_imbalance_metric(self, medium_corpus):
        chunks = partition_by_tokens(medium_corpus, 4)
        sizes = np.array([ch.num_tokens for ch in chunks])
        assert sizes.max() / sizes.mean() - 1 < 0.15


class TestRoundRobin:
    def test_assignment_order(self, medium_corpus):
        chunks = partition_by_tokens(medium_corpus, 8)
        per_gpu = assign_round_robin(chunks, 4)
        assert [c.chunk_id for c in per_gpu[0]] == [0, 4]
        assert [c.chunk_id for c in per_gpu[3]] == [3, 7]

    def test_requires_multiple(self, medium_corpus):
        chunks = partition_by_tokens(medium_corpus, 6)
        with pytest.raises(ValueError, match="multiple"):
            assign_round_robin(chunks, 4)

    def test_bad_gpu_count(self, medium_corpus):
        chunks = partition_by_tokens(medium_corpus, 4)
        with pytest.raises(ValueError):
            assign_round_robin(chunks, 0)


class TestProperties:
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_partition_conserves_tokens(self, num_chunks, seed):
        c = generate_synthetic_corpus(
            small_spec(num_docs=60, num_words=80, mean_doc_len=20), seed=seed
        )
        chunks = partition_by_tokens(c, num_chunks)
        assert sum(ch.num_tokens for ch in chunks) == c.num_tokens
        assert sum(ch.num_docs for ch in chunks) == c.num_docs
        assert all(ch.num_docs >= 1 for ch in chunks)

    @given(st.integers(min_value=2, max_value=6))
    def test_balance_on_realistic_corpus(self, num_chunks):
        c = generate_synthetic_corpus(
            small_spec(num_docs=300, num_words=100, mean_doc_len=30), seed=1
        )
        chunks = partition_by_tokens(c, num_chunks)
        # Mean doc len 30 => boundaries can miss targets by ~one doc.
        sizes = np.array([ch.num_tokens for ch in chunks])
        assert sizes.max() / sizes.mean() - 1 < 0.25
