"""LDA model state: topic assignments, theta replicas, phi replicas.

The output of training (Section 2.1) is the pair of count matrices

- ``theta[d, k]`` — tokens of topic ``k`` in document ``d`` (sparse CSR,
  partitioned by chunk under partition-by-document);
- ``phi[k, v]`` — occurrences of word ``v`` under topic ``k`` in the whole
  corpus (dense, replicated per device and synchronized each iteration).

``topic_totals[k] = sum_v phi[k, v]`` is maintained alongside phi because
the sampler's denominator needs it per draw (Eq. 1).

Invariants (checked by :meth:`LdaState.validate`):

- ``phi.sum() == T`` and ``topic_totals == phi.sum(axis=1)``;
- per chunk, ``theta`` row sums equal the local document lengths;
- ``sum of all theta == T`` — token conservation across replicas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.corpus.document import Corpus
from repro.corpus.encoding import DeviceChunk, encode_chunk, topic_dtype_for
from repro.corpus.partition import ChunkSpec, partition_by_tokens
from repro.core.config import TrainerConfig, check_num_topics
from repro.core.rng import RngPool
from repro.core.sparse import CsrCounts, from_assignments


@dataclass
class ChunkState:
    """Mutable per-chunk replica: the chunk's tokens' topics and theta."""

    chunk: DeviceChunk
    topics: np.ndarray  # topic per token, aligned with the chunk's word-first order
    theta: CsrCounts

    @property
    def num_tokens(self) -> int:
        return self.chunk.num_tokens

    def rebuild_theta(self, num_topics: int, compress: bool = True) -> CsrCounts:
        """Recompute theta from current assignments (update-theta kernel)."""
        self.theta = from_assignments(
            self.chunk.token_docs,
            self.topics.astype(np.int64),
            num_rows=self.chunk.num_local_docs,
            num_cols=num_topics,
            compress=compress,
        )
        return self.theta


@dataclass
class LdaState:
    """Full training state across all chunks.

    ``phi``/``topic_totals`` here are the *reference* (synchronized) model;
    the multi-GPU scheduler keeps per-device copies and reconciles them
    into this one each iteration (Section 5.2).
    """

    num_topics: int
    num_words: int
    alpha: float
    beta: float
    chunks: list[ChunkState]
    phi: np.ndarray = field(init=False)  # int32[K, V]
    topic_totals: np.ndarray = field(init=False)  # int64[K]

    def __post_init__(self) -> None:
        check_num_topics(self.num_topics)
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("hyper-parameters must be positive")
        # One bincount over every token's flat cell ``topic * V + word``.
        k, v = self.num_topics, self.num_words
        cells = np.concatenate([
            np.empty(0, dtype=np.int64),
            *(cs.topics.astype(np.int64) * v + cs.chunk.token_words
              for cs in self.chunks),
        ])
        self.phi = (
            np.bincount(cells, minlength=k * v).astype(np.int32).reshape(k, v)
        )
        self.topic_totals = self.phi.sum(axis=1, dtype=np.int64)

    # -- construction ------------------------------------------------------

    @classmethod
    def initialize(
        cls,
        corpus: Corpus,
        config: TrainerConfig,
        chunk_specs: list[ChunkSpec] | None = None,
    ) -> LdaState:
        """Random-topic initialisation over a chunked corpus.

        Each token receives a uniform random topic ("Initially, each token
        is randomly assigned with a topic", Section 2.1); theta replicas
        are built immediately so the first sampling pass sees consistent
        counts.
        """
        if chunk_specs is None:
            chunk_specs = partition_by_tokens(corpus, config.num_chunks)
        pool = RngPool(config.seed)
        rng = pool.init_stream()
        tdtype = topic_dtype_for(config.num_topics, config.compress)
        chunks: list[ChunkState] = []
        for spec in chunk_specs:
            dc = encode_chunk(corpus, spec, config.tokens_per_block)
            topics = rng.integers(
                0, config.num_topics, size=dc.num_tokens, dtype=np.int64
            ).astype(tdtype)
            cs = ChunkState(chunk=dc, topics=topics, theta=None)  # type: ignore[arg-type]
            cs.rebuild_theta(config.num_topics, config.compress)
            chunks.append(cs)
        return cls(
            num_topics=config.num_topics,
            num_words=corpus.num_words,
            alpha=config.effective_alpha,
            beta=config.effective_beta,
            chunks=chunks,
        )

    # -- accessors -----------------------------------------------------------

    @property
    def num_tokens(self) -> int:
        return sum(cs.num_tokens for cs in self.chunks)

    def doc_topic_matrix(self) -> np.ndarray:
        """Dense theta over *global* documents (diagnostics / examples)."""
        num_docs = max(cs.chunk.spec.doc_hi for cs in self.chunks)
        out = np.zeros((num_docs, self.num_topics), dtype=np.int64)
        for cs in self.chunks:
            dense = cs.theta.to_dense()
            out[cs.chunk.spec.doc_lo : cs.chunk.spec.doc_hi] += dense
        return out

    def top_words(self, topic: int, n: int = 10) -> np.ndarray:
        """Word ids with the highest count under ``topic``."""
        if not (0 <= topic < self.num_topics):
            raise IndexError(f"topic {topic} out of range")
        if n < 1:
            raise ValueError("n must be >= 1")
        row = self.phi[topic]
        n = min(n, row.shape[0])
        part = np.argpartition(row, -n)[-n:]
        return part[np.argsort(row[part])[::-1]]

    # -- invariants -----------------------------------------------------------

    def validate(self) -> None:
        """Check the token-conservation invariants (raises on violation)."""
        total = self.num_tokens
        if int(self.phi.sum(dtype=np.int64)) != total:
            raise AssertionError(
                f"phi total {int(self.phi.sum(dtype=np.int64))} != T {total}"
            )
        if not np.array_equal(self.topic_totals, self.phi.sum(axis=1, dtype=np.int64)):
            raise AssertionError("topic_totals out of sync with phi")
        if np.any(self.phi < 0):
            raise AssertionError("negative phi count")
        theta_sum = 0
        for cs in self.chunks:
            lens = np.diff(cs.chunk.doc_offsets)
            row_sums = np.zeros(cs.chunk.num_local_docs, dtype=np.int64)
            rows = np.repeat(
                np.arange(cs.chunk.num_local_docs), cs.theta.row_lengths()
            )
            np.add.at(row_sums, rows, cs.theta.data.astype(np.int64))
            if not np.array_equal(row_sums, lens):
                raise AssertionError(
                    f"theta row sums != doc lengths in chunk {cs.chunk.spec.chunk_id}"
                )
            theta_sum += int(cs.theta.data.sum(dtype=np.int64))
        if theta_sum != total:
            raise AssertionError(f"theta total {theta_sum} != T {total}")
