"""Vocabulary: bidirectional term <-> integer-id mapping.

The paper's corpora are bag-of-words with a fixed vocabulary of size ``V``
(Table 3: NYTimes V=101,636; PubMed V=141,043).  The trainer itself only
sees integer word ids; the vocabulary exists so examples can show human
readable topics and so the UCI reader can attach terms.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence


class Vocabulary:
    """An immutable, order-preserving term dictionary.

    Parameters
    ----------
    terms:
        Unique terms; the id of a term is its position in this sequence.

    Raises
    ------
    ValueError
        If ``terms`` contains duplicates or empty strings.
    """

    __slots__ = ("_terms", "_index")

    def __init__(self, terms: Sequence[str]):
        terms = list(terms)
        index: dict[str, int] = {}
        for i, t in enumerate(terms):
            if not isinstance(t, str) or not t:
                raise ValueError(f"term at position {i} is not a non-empty string: {t!r}")
            if t in index:
                raise ValueError(f"duplicate term {t!r} at positions {index[t]} and {i}")
            index[t] = i
        self._terms: list[str] = terms
        self._index: dict[str, int] = index

    @classmethod
    def synthetic(cls, size: int, prefix: str = "w") -> Vocabulary:
        """Build a vocabulary of ``size`` synthetic terms ``w0, w1, ...``."""
        if size < 0:
            raise ValueError(f"vocabulary size must be non-negative, got {size}")
        return cls([f"{prefix}{i}" for i in range(size)])

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[str]:
        return iter(self._terms)

    def __contains__(self, term: object) -> bool:
        return term in self._index

    def __getitem__(self, word_id: int) -> str:
        return self._terms[word_id]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Vocabulary(V={len(self)})"

    def ids_of(self, terms: Iterable[str]) -> list[int]:
        """Ids of ``terms``; ``KeyError`` if a term is not in the vocabulary."""
        return [self._index[t] for t in terms]

    def terms_of(self, ids: Iterable[int]) -> list[str]:
        """Map word ids back to terms."""
        return [self._terms[i] for i in ids]
