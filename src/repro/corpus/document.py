"""Corpus container: a validated, array-backed bag of tokens.

The canonical in-memory representation is token-parallel arrays, the same
flattened layout the paper's preprocessing produces before chunking:

- ``doc_offsets``: ``int64[D+1]`` — CSR-style offsets; the tokens of
  document ``d`` occupy ``[doc_offsets[d], doc_offsets[d+1])``.
- ``word_ids``: ``int32[T]`` — the word id of every token, grouped by
  document (document-major order).

A *token* is one occurrence of a word in a document; the same word may
occur several times in one document (Figure 1 of the paper).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.corpus.vocab import Vocabulary


@dataclass(frozen=True)
class Document:
    """A lightweight view of one document's tokens."""

    doc_id: int
    word_ids: np.ndarray

    def __len__(self) -> int:
        return int(self.word_ids.shape[0])


@dataclass(frozen=True)
class Corpus:
    """An immutable corpus of ``D`` documents over a vocabulary of ``V`` words.

    Use :meth:`from_token_lists` or :meth:`from_bow` to construct; the raw
    constructor validates the arrays it is given.
    """

    doc_offsets: np.ndarray
    word_ids: np.ndarray
    num_words: int
    vocabulary: Vocabulary | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        off = np.asarray(self.doc_offsets, dtype=np.int64)
        wid = np.asarray(self.word_ids, dtype=np.int32)
        object.__setattr__(self, "doc_offsets", off)
        object.__setattr__(self, "word_ids", wid)
        if off.ndim != 1 or off.shape[0] < 1:
            raise ValueError("doc_offsets must be a 1-D array of length D+1 >= 1")
        if off[0] != 0:
            raise ValueError(f"doc_offsets must start at 0, got {off[0]}")
        if np.any(np.diff(off) < 0):
            raise ValueError("doc_offsets must be non-decreasing")
        if off[-1] != wid.shape[0]:
            raise ValueError(
                f"doc_offsets[-1]={off[-1]} does not match number of tokens {wid.shape[0]}"
            )
        if self.num_words <= 0:
            raise ValueError(f"num_words must be positive, got {self.num_words}")
        if wid.size and (wid.min() < 0 or wid.max() >= self.num_words):
            raise ValueError(
                f"word ids must lie in [0, {self.num_words}); "
                f"found range [{wid.min()}, {wid.max()}]"
            )
        if self.vocabulary is not None and len(self.vocabulary) != self.num_words:
            raise ValueError(
                f"vocabulary size {len(self.vocabulary)} != num_words {self.num_words}"
            )

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_token_lists(
        cls,
        docs: Sequence[Sequence[int]],
        num_words: int,
        vocabulary: Vocabulary | None = None,
    ) -> Corpus:
        """Build a corpus from per-document lists of word ids."""
        lengths = np.fromiter((len(d) for d in docs), dtype=np.int64, count=len(docs))
        offsets = np.zeros(len(docs) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        if offsets[-1] == 0:
            word_ids = np.zeros(0, dtype=np.int32)
        else:
            word_ids = np.concatenate(
                [np.asarray(d, dtype=np.int32) for d in docs if len(d)]
            )
        return cls(offsets, word_ids, num_words, vocabulary)

    @classmethod
    def from_bow(
        cls,
        entries: Iterable[tuple[int, int, int]],
        num_docs: int,
        num_words: int,
        vocabulary: Vocabulary | None = None,
    ) -> Corpus:
        """Build a corpus from ``(doc_id, word_id, count)`` triples.

        This is the UCI bag-of-words shape; each triple expands into
        ``count`` tokens of ``word_id`` in ``doc_id``.
        """
        entries = list(entries)
        if entries:
            d = np.array([e[0] for e in entries], dtype=np.int64)
            w = np.array([e[1] for e in entries], dtype=np.int32)
            c = np.array([e[2] for e in entries], dtype=np.int64)
        else:
            d = np.zeros(0, dtype=np.int64)
            w = np.zeros(0, dtype=np.int32)
            c = np.zeros(0, dtype=np.int64)
        if d.size:
            if d.min() < 0 or d.max() >= num_docs:
                raise ValueError(f"doc ids must lie in [0, {num_docs})")
            if np.any(c <= 0):
                raise ValueError("counts must be positive")
        # Expand counts, then sort tokens by document to get document-major order.
        rep_docs = np.repeat(d, c)
        rep_words = np.repeat(w, c)
        order = np.argsort(rep_docs, kind="stable")
        rep_docs = rep_docs[order]
        rep_words = rep_words[order]
        lengths = np.bincount(rep_docs, minlength=num_docs).astype(np.int64)
        offsets = np.zeros(num_docs + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(offsets, rep_words.astype(np.int32), num_words, vocabulary)

    # -- basic accessors -------------------------------------------------

    @property
    def num_docs(self) -> int:
        """``D``: number of documents (including empty ones)."""
        return int(self.doc_offsets.shape[0] - 1)

    @property
    def num_tokens(self) -> int:
        """``T``: total number of tokens."""
        return int(self.word_ids.shape[0])

    def doc_length(self, doc_id: int) -> int:
        """Number of tokens in document ``doc_id``."""
        self._check_doc(doc_id)
        return int(self.doc_offsets[doc_id + 1] - self.doc_offsets[doc_id])

    def doc_lengths(self) -> np.ndarray:
        """``int64[D]`` vector of document lengths."""
        return np.diff(self.doc_offsets)

    def document(self, doc_id: int) -> Document:
        """Return a zero-copy view of one document."""
        self._check_doc(doc_id)
        lo, hi = self.doc_offsets[doc_id], self.doc_offsets[doc_id + 1]
        return Document(doc_id, self.word_ids[lo:hi])

    def token_doc_ids(self) -> np.ndarray:
        """``int32[T]``: the document id of every token (document-major)."""
        return np.repeat(
            np.arange(self.num_docs, dtype=np.int32), self.doc_lengths()
        )

    def subset(self, doc_lo: int, doc_hi: int) -> Corpus:
        """Corpus restricted to documents ``[doc_lo, doc_hi)`` (ids rebased)."""
        if not (0 <= doc_lo <= doc_hi <= self.num_docs):
            raise ValueError(f"invalid document range [{doc_lo}, {doc_hi})")
        lo = self.doc_offsets[doc_lo]
        hi = self.doc_offsets[doc_hi]
        offsets = self.doc_offsets[doc_lo : doc_hi + 1] - lo
        return Corpus(offsets.copy(), self.word_ids[lo:hi].copy(), self.num_words, self.vocabulary)

    def _check_doc(self, doc_id: int) -> None:
        if not (0 <= doc_id < self.num_docs):
            raise IndexError(f"doc_id {doc_id} out of range [0, {self.num_docs})")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Corpus(D={self.num_docs}, V={self.num_words}, T={self.num_tokens})"
        )
