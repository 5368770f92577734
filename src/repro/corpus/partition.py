"""Token-balanced partition-by-document (Section 4).

The paper partitions the corpus into ``C = M * G`` chunks along document
boundaries.  Because documents have very different lengths, chunks are
balanced by **token count**, not document count: *"To avoid load imbalance,
the corpus is evenly partitioned by number of tokens, instead of number of
documents."*

With partition-by-document, each chunk owns a disjoint slice of the
document-topic matrix theta (no cross-chunk theta synchronisation), while
every chunk holds a full replica of the topic-word matrix phi that must be
reduced after each iteration (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus.document import Corpus


@dataclass(frozen=True)
class ChunkSpec:
    """One chunk of a partition: documents ``[doc_lo, doc_hi)``.

    ``token_lo``/``token_hi`` are offsets into the corpus token arrays;
    they make chunk encoding zero-copy.
    """

    chunk_id: int
    doc_lo: int
    doc_hi: int
    token_lo: int
    token_hi: int

    @property
    def num_docs(self) -> int:
        return self.doc_hi - self.doc_lo

    @property
    def num_tokens(self) -> int:
        return self.token_hi - self.token_lo


def partition_by_tokens(corpus: Corpus, num_chunks: int) -> list[ChunkSpec]:
    """Split ``corpus`` into ``num_chunks`` document-aligned chunks of
    near-equal token count.

    The split points are the document boundaries closest to the ideal
    token quantiles ``i * T / C``.  Every document lands in exactly one
    chunk; chunks are contiguous in document id (matching the sequential
    layout the paper's CPU preprocessing produces).

    Raises
    ------
    ValueError
        If ``num_chunks`` is not in ``[1, D]``.
    """
    if num_chunks < 1:
        raise ValueError(f"num_chunks must be >= 1, got {num_chunks}")
    if num_chunks > corpus.num_docs:
        raise ValueError(
            f"cannot make {num_chunks} chunks out of {corpus.num_docs} documents"
        )
    total = corpus.num_tokens
    offsets = corpus.doc_offsets
    # Ideal token boundary for the start of chunk i, then snap to the
    # nearest document boundary (offsets is sorted -> searchsorted).
    targets = (np.arange(1, num_chunks, dtype=np.float64) * total) / num_chunks
    cut_docs = np.searchsorted(offsets, targets, side="left").astype(np.int64)
    # Snap each cut to whichever adjacent doc boundary is closer to target.
    for i, t in enumerate(targets):
        d = cut_docs[i]
        if d > 0 and abs(offsets[d - 1] - t) < abs(offsets[min(d, corpus.num_docs)] - t):
            cut_docs[i] = d - 1
    # Boundaries must be strictly increasing to keep every chunk non-empty
    # in documents; push duplicates forward.
    bounds = [0]
    for d in cut_docs:
        bounds.append(max(int(d), bounds[-1] + 1))
    bounds.append(corpus.num_docs)
    # The pushing above can overshoot the end; walk back if needed.
    for i in range(len(bounds) - 2, 0, -1):
        if bounds[i] >= bounds[i + 1]:
            bounds[i] = bounds[i + 1] - 1
    if bounds[0] != 0 or any(b <= a for a, b in zip(bounds, bounds[1:])):
        raise ValueError(
            f"could not produce {num_chunks} non-empty chunks for this corpus"
        )

    chunks = []
    for i in range(num_chunks):
        lo, hi = bounds[i], bounds[i + 1]
        chunks.append(
            ChunkSpec(
                chunk_id=i,
                doc_lo=lo,
                doc_hi=hi,
                token_lo=int(offsets[lo]),
                token_hi=int(offsets[hi]),
            )
        )
    return chunks


def assign_round_robin(chunks: list[ChunkSpec], num_gpus: int) -> list[list[ChunkSpec]]:
    """Round-robin chunk -> GPU assignment (Section 5.1).

    Chunk ``i`` goes to GPU ``i % G``; chunks with smaller ids are scheduled
    first.  Returns, per GPU, its ordered list of chunks.
    """
    if num_gpus < 1:
        raise ValueError(f"num_gpus must be >= 1, got {num_gpus}")
    if len(chunks) % num_gpus != 0:
        raise ValueError(
            f"number of chunks ({len(chunks)}) must be a multiple of the "
            f"number of GPUs ({num_gpus}); C = M * G"
        )
    per_gpu: list[list[ChunkSpec]] = [[] for _ in range(num_gpus)]
    for c in chunks:
        per_gpu[c.chunk_id % num_gpus].append(c)
    return per_gpu
