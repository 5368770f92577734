"""Device-side chunk encoding (Sections 6.1.2, 6.1.3, 6.2).

Before a chunk is shipped to a GPU, the CPU preprocessing stage builds:

- a **word-first token ordering**: tokens sorted by word id, so all tokens
  of one word are contiguous and can be assigned to thread blocks that
  share the p2(k) index tree in shared memory;
- a **CSR word index** (``word_offsets``) over that ordering;
- a **document-word map**: a permutation regrouping token positions by
  document, generated "on CPU's side at the data preprocessing stage" so
  the update-theta kernel can walk tokens document by document;
- a **thread-block plan** (Figure 6): words with many tokens are split
  across multiple blocks (bounded block size) and placed at the smallest
  block ids to avoid the long-tail effect;
- optional **16-bit topic storage** (data-compression, Section 6.1.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.corpus.document import Corpus
from repro.corpus.partition import ChunkSpec

#: Paper: 32 samplers (warps) per thread block, each warp samples tokens.
#: The block plan bounds the tokens a single block owns so that huge words
#: are split over several blocks.
DEFAULT_TOKENS_PER_BLOCK = 1024


@dataclass(frozen=True)
class BlockPlan:
    """Thread-block work assignment over the word-first token array.

    ``starts[i]:ends[i]`` is the token span of block ``i``; ``words[i]`` is
    the word every token in that span belongs to.  Blocks are ordered
    longest-span first (the paper assigns heavy words to the smallest block
    ids so the GPU scheduler issues them first).
    """

    words: np.ndarray
    starts: np.ndarray
    ends: np.ndarray

    @property
    def num_blocks(self) -> int:
        return int(self.words.shape[0])


@dataclass(frozen=True)
class DeviceChunk:
    """A corpus chunk encoded for device-side sampling.

    All document ids are **local** to the chunk (0-based); ``spec`` maps
    back to global document ids.
    """

    spec: ChunkSpec
    num_words: int
    token_words: np.ndarray  # int32[n], sorted word-first
    token_docs: np.ndarray  # int32[n], local doc id per token (word-first order)
    word_offsets: np.ndarray  # int64[V+1], CSR over token arrays
    doc_order: np.ndarray  # int64[n], token positions regrouped by document
    doc_offsets: np.ndarray  # int64[D_local+1], CSR over doc_order
    block_plan: BlockPlan = field(compare=False)

    @property
    def num_tokens(self) -> int:
        return int(self.token_words.shape[0])

    @property
    def num_local_docs(self) -> int:
        return int(self.doc_offsets.shape[0] - 1)

    def nbytes(self, topic_dtype: np.dtype = np.dtype(np.uint16)) -> int:
        """Device-memory footprint of this chunk including its topic array.

        Used by the memory manager to enforce GPU capacity (the paper's
        constraint when choosing ``M``: one chunk for M=1, two for M>1).
        """
        return int(
            self.token_words.nbytes
            + self.token_docs.nbytes
            + self.word_offsets.nbytes
            + self.doc_order.nbytes
            + self.doc_offsets.nbytes
            + self.num_tokens * topic_dtype.itemsize
        )

    def validate(self) -> None:
        """Check internal consistency (used by tests and after transfers)."""
        n = self.num_tokens
        if self.token_docs.shape[0] != n or self.doc_order.shape[0] != n:
            raise ValueError("token array length mismatch")
        if self.word_offsets[0] != 0 or self.word_offsets[-1] != n:
            raise ValueError("word_offsets endpoints invalid")
        if np.any(np.diff(self.word_offsets) < 0):
            raise ValueError("word_offsets must be non-decreasing")
        # word-first order: token_words must equal the CSR expansion.
        spans = np.diff(self.word_offsets)
        expect = np.repeat(np.arange(self.num_words, dtype=np.int32), spans)
        if not np.array_equal(expect, self.token_words):
            raise ValueError("token_words not consistent with word_offsets")
        # doc_order must be a permutation grouping tokens by document.
        if not np.array_equal(np.sort(self.doc_order), np.arange(n)):
            raise ValueError("doc_order is not a permutation")
        docs_in_doc_order = self.token_docs[self.doc_order]
        if np.any(np.diff(docs_in_doc_order) < 0):
            raise ValueError("doc_order does not group tokens by document")


def build_block_plan(
    word_offsets: np.ndarray,
    tokens_per_block: int = DEFAULT_TOKENS_PER_BLOCK,
) -> BlockPlan:
    """Split each word's token span into blocks of at most ``tokens_per_block``.

    Blocks are sorted by descending span so that heavy words get the
    smallest block ids (Figure 6: "those words are assigned to thread
    blocks that have the smallest IDs to avoid long-tail effect").
    """
    if tokens_per_block < 1:
        raise ValueError(f"tokens_per_block must be >= 1, got {tokens_per_block}")
    spans = np.diff(word_offsets)
    present = np.nonzero(spans)[0]
    words_list = []
    starts_list = []
    ends_list = []
    for w in present:
        lo = int(word_offsets[w])
        hi = int(word_offsets[w + 1])
        for s in range(lo, hi, tokens_per_block):
            words_list.append(w)
            starts_list.append(s)
            ends_list.append(min(s + tokens_per_block, hi))
    words = np.asarray(words_list, dtype=np.int64)
    starts = np.asarray(starts_list, dtype=np.int64)
    ends = np.asarray(ends_list, dtype=np.int64)
    order = np.argsort(starts - ends, kind="stable")  # descending span
    return BlockPlan(words[order], starts[order], ends[order])


def encode_chunk(
    corpus: Corpus,
    spec: ChunkSpec,
    tokens_per_block: int = DEFAULT_TOKENS_PER_BLOCK,
) -> DeviceChunk:
    """Encode documents ``[spec.doc_lo, spec.doc_hi)`` of ``corpus``.

    Produces the word-first sorted token arrays, the CSR word index, the
    document-word map and the thread-block plan described in Section 6.
    """
    if spec.doc_hi > corpus.num_docs or spec.doc_lo < 0 or spec.doc_lo >= spec.doc_hi:
        raise ValueError(f"chunk spec {spec} out of corpus range")
    lo, hi = corpus.doc_offsets[spec.doc_lo], corpus.doc_offsets[spec.doc_hi]
    if (int(lo), int(hi)) != (spec.token_lo, spec.token_hi):
        raise ValueError("chunk spec token range inconsistent with corpus")
    words = corpus.word_ids[lo:hi]
    lengths = np.diff(corpus.doc_offsets[spec.doc_lo : spec.doc_hi + 1])
    local_docs = np.repeat(
        np.arange(spec.num_docs, dtype=np.int32), lengths
    )

    # Word-first sort (stable keeps document order within a word, which is
    # what the per-warp token walk produces on the GPU).
    order = np.argsort(words, kind="stable")
    token_words = np.ascontiguousarray(words[order], dtype=np.int32)
    token_docs = np.ascontiguousarray(local_docs[order], dtype=np.int32)

    counts = np.bincount(token_words, minlength=corpus.num_words).astype(np.int64)
    word_offsets = np.zeros(corpus.num_words + 1, dtype=np.int64)
    np.cumsum(counts, out=word_offsets[1:])

    # Document-word map: positions (into the word-first arrays) regrouped
    # by local document id.
    doc_order = np.argsort(token_docs, kind="stable").astype(np.int64)
    doc_counts = np.bincount(token_docs, minlength=spec.num_docs).astype(np.int64)
    doc_offsets = np.zeros(spec.num_docs + 1, dtype=np.int64)
    np.cumsum(doc_counts, out=doc_offsets[1:])

    plan = build_block_plan(word_offsets, tokens_per_block)
    return DeviceChunk(
        spec=spec,
        num_words=corpus.num_words,
        token_words=token_words,
        token_docs=token_docs,
        word_offsets=word_offsets,
        doc_order=doc_order,
        doc_offsets=doc_offsets,
        block_plan=plan,
    )


def topic_dtype_for(num_topics: int, compress: bool = True) -> np.dtype:
    """Choose the token-topic storage dtype (data compression, 6.1.3).

    The paper stores topics/column indices as 16-bit integers because
    ``K < 2**16``.  With ``compress=False`` (or K too large) fall back to
    32-bit.
    """
    if num_topics < 1:
        raise ValueError(f"num_topics must be >= 1, got {num_topics}")
    if compress and num_topics <= np.iinfo(np.uint16).max + 1:
        return np.dtype(np.uint16)
    return np.dtype(np.int32)
