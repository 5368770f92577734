"""The trained-model artifact: a frozen, validated ``TopicModel``.

Algorithm 1 ends by collecting the trained model from the devices; what
a consumer actually needs from that collection is small and identical
for every algorithm in the repo: the topic-word count matrix ``phi``,
its row sums, the Dirichlet hyper-parameters, and (optionally) the
vocabulary that maps word ids back to terms.  :class:`TopicModel` is
that contract — immutable, invariant-checked at construction, and
independent of which of the five trainers produced it.

Persistence lives in :mod:`repro.model.serialize` (versioned ``.npz``);
batched fold-in inference over the artifact lives in
:mod:`repro.model.inference`.
"""

from __future__ import annotations

import uuid
from collections.abc import Mapping
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

import numpy as np

from repro.corpus.vocab import Vocabulary

__all__ = ["TopicModel", "DEFAULT_TOP_INDEX_WIDTH", "make_lineage"]


def make_lineage(parent: str | None = None) -> dict[str, Any]:
    """Fresh lineage record for one exported model generation.

    ``generation`` is a random 12-hex id (unique per export, so two
    exports of the same trainer are distinguishable model generations);
    ``parent`` names the generation this one supersedes — the hot-swap
    and rollback bookkeeping a serving tier needs; ``created_at`` is UTC
    ISO-8601.  Stored under ``metadata["lineage"]`` and therefore
    serialized into the v2 artifact's ``metadata_json`` verbatim.
    """
    return {
        "generation": uuid.uuid4().hex[:12],
        "parent": parent,
        "created_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
    }

#: Default width of the precomputed per-topic top-word index: enough for
#: every realistic ``topics``/``top_terms`` query while keeping the
#: artifact overhead at K * 32 int64s.
DEFAULT_TOP_INDEX_WIDTH = 32


@dataclass(frozen=True)
class TopicModel:
    """Frozen artifact of a finished LDA training run.

    Attributes
    ----------
    phi:
        ``int64[K, V]`` topic-word counts (copied, read-only).
    topic_totals:
        ``int64[K]`` row sums of ``phi``.
    alpha, beta:
        The Dirichlet hyper-parameters training used; fold-in inference
        must reuse them.
    vocabulary:
        Optional term dictionary of length ``V``.
    metadata:
        Free-form provenance (algorithm name, iterations, options…);
        values must be JSON-serializable to survive a save/load cycle.
    """

    phi: np.ndarray
    topic_totals: np.ndarray
    alpha: float
    beta: float
    vocabulary: Vocabulary | None = None
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        phi = np.asarray(self.phi)
        if phi.ndim != 2:
            raise ValueError("phi must be 2-D (K x V)")
        if phi.shape[0] < 1 or phi.shape[1] < 1:
            raise ValueError("phi must have at least one topic and one word")
        phi = phi.astype(np.int64, copy=True)
        if np.any(phi < 0):
            raise ValueError("phi has negative counts")
        totals = np.asarray(self.topic_totals).astype(np.int64, copy=True)
        if totals.shape != (phi.shape[0],):
            raise ValueError("topic_totals must have length K")
        if not np.array_equal(totals, phi.sum(axis=1, dtype=np.int64)):
            raise ValueError("topic_totals do not match phi row sums")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("hyper-parameters must be positive")
        if self.vocabulary is not None and len(self.vocabulary) != phi.shape[1]:
            raise ValueError(
                f"vocabulary size {len(self.vocabulary)} != V {phi.shape[1]}"
            )
        phi.setflags(write=False)
        totals.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "topic_totals", totals)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "metadata", dict(self.metadata))
        # Lazily built / loader-adopted serving index (see top_word_index).
        object.__setattr__(self, "_top_word_index", None)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_state(
        cls,
        state: Any,
        vocabulary: Vocabulary | None = None,
        metadata: Mapping[str, Any] | None = None,
    ) -> TopicModel:
        """Build from any training state exposing the shared surface.

        Works for the chunked :class:`~repro.core.model.LdaState` and the
        dense :class:`~repro.baselines.plain_cgs.PlainCgsModel` alike —
        anything with ``phi``, ``topic_totals``, ``alpha`` and ``beta``.
        """
        for attr in ("phi", "topic_totals", "alpha", "beta"):
            if not hasattr(state, attr):
                raise TypeError(
                    f"{type(state).__name__} has no {attr!r}; cannot export "
                    f"a TopicModel from it"
                )
        return cls(
            phi=state.phi,
            topic_totals=state.topic_totals,
            alpha=float(state.alpha),
            beta=float(state.beta),
            vocabulary=vocabulary,
            metadata=dict(metadata or {}),
        )

    # -- shapes and distributions -----------------------------------------

    @property
    def num_topics(self) -> int:
        return int(self.phi.shape[0])

    @property
    def num_words(self) -> int:
        return int(self.phi.shape[1])

    @property
    def num_tokens(self) -> int:
        """Training-corpus token count (phi conserves it)."""
        return int(self.topic_totals.sum(dtype=np.int64))

    def word_given_topic(self) -> np.ndarray:
        """``float64[K, V]`` smoothed p(w | k) — the fold-in ``p*`` matrix:
        ``(phi + beta) / (topic_totals + beta * V)`` per row."""
        denom = self.topic_totals.astype(np.float64) + self.beta * self.num_words
        return (self.phi.astype(np.float64) + self.beta) / denom[:, None]

    # -- topic inspection ---------------------------------------------------

    def top_word_index(self, width: int = DEFAULT_TOP_INDEX_WIDTH) -> np.ndarray:
        """Precomputed ``(K, min(width, V))`` top-word-id index, cached.

        Row ``k`` holds the word ids with the highest count under topic
        ``k``, descending, ties ordered by ascending word id.  (When
        several words share the count at the index *boundary*, which of
        them make the cut is unspecified but deterministic.)  Built once
        per artifact — :meth:`save` serializes it, so a loaded serving
        model answers :meth:`top_words` with one row slice instead of an
        ``np.argpartition`` over V per query.  Requesting a wider index
        than cached rebuilds it.
        """
        if width < 1:
            raise ValueError("width must be >= 1")
        width = min(int(width), self.num_words)
        cached = self._top_word_index
        if cached is None or cached.shape[1] < width:
            v = self.num_words
            if width >= v:
                cand = np.argsort(-self.phi, axis=1, kind="stable")
            else:
                # O(K*V) selection of the top-width candidates, then the
                # expensive sorting only on the (K, width) slice: order
                # candidates by ascending id first so the stable
                # descending-count sort breaks ties by ascending word id.
                cand = np.argpartition(self.phi, v - width, axis=1)[:, v - width:]
                cand = np.sort(cand, axis=1)
                counts = np.take_along_axis(self.phi, cand, axis=1)
                by_count = np.argsort(-counts, axis=1, kind="stable")
                cand = np.take_along_axis(cand, by_count, axis=1)
            idx = np.ascontiguousarray(cand[:, :width].astype(np.int64))
            idx.setflags(write=False)
            object.__setattr__(self, "_top_word_index", idx)
        cached = self._top_word_index
        # honour the documented (K, width) shape when the cache is wider
        return cached if cached.shape[1] == width else cached[:, :width]

    def _adopt_top_word_index(self, idx: np.ndarray) -> None:
        """Install a deserialized index after validating it against phi."""
        idx = np.asarray(idx)
        if (
            idx.ndim != 2
            or idx.shape[0] != self.num_topics
            or not (1 <= idx.shape[1] <= self.num_words)
        ):
            raise ValueError("top-word index has an inconsistent shape")
        if not np.issubdtype(idx.dtype, np.integer):
            raise ValueError("top-word index must hold integer word ids")
        if idx.min() < 0 or idx.max() >= self.num_words:
            raise ValueError("top-word index refers to out-of-range word ids")
        idx = idx.astype(np.int64)
        if np.any(np.diff(np.sort(idx, axis=1), axis=1) == 0):
            raise ValueError("top-word index repeats a word within a topic")
        counts = np.take_along_axis(self.phi, idx, axis=1)
        if np.any(np.diff(counts, axis=1) > 0):
            raise ValueError("top-word index rows are not count-descending")
        # Membership, not just ordering: each row's count sequence must
        # equal the row's true top-width counts exactly (a shifted or
        # tie-straddling window is count-descending yet omits a
        # higher-count word).  One O(K*V) partition at load time; words
        # swapped among equal counts are legitimately interchangeable.
        width = idx.shape[1]
        kth = self.num_words - width
        if kth == 0:
            top = np.sort(self.phi, axis=1)[:, ::-1]
        else:
            part = np.partition(self.phi, kth, axis=1)[:, kth:]
            top = np.sort(part, axis=1)[:, ::-1]
        if not np.array_equal(counts, top):
            raise ValueError("top-word index omits higher-count words")
        idx = np.ascontiguousarray(idx)
        idx.setflags(write=False)
        object.__setattr__(self, "_top_word_index", idx)

    def top_words(self, topic: int, n: int = 10) -> np.ndarray:
        """Word ids with the highest count under ``topic``, descending.

        Served from the precomputed :meth:`top_word_index` when one is
        present and wide enough (every model loaded from a current-format
        artifact); otherwise falls back to a one-off
        ``np.argpartition`` over the topic row, which may order tied
        counts differently.
        """
        if not (0 <= topic < self.num_topics):
            raise IndexError(f"topic {topic} out of range")
        if n < 1:
            raise ValueError("n must be >= 1")
        row = self.phi[topic]
        n = min(n, row.shape[0])
        idx = self._top_word_index
        if idx is not None and idx.shape[1] >= n:
            return idx[topic, :n].copy()
        part = np.argpartition(row, -n)[-n:]
        return part[np.argsort(row[part])[::-1]]

    def top_terms(self, topic: int, n: int = 10) -> list[str]:
        """Top words as strings (``w<id>`` placeholders without a vocab)."""
        ids = self.top_words(topic, n)
        if self.vocabulary is None:
            return [f"w{i}" for i in ids]
        return [self.vocabulary[int(i)] for i in ids]

    def topics_by_size(self) -> np.ndarray:
        """Topic indices ordered by descending token mass."""
        return np.argsort(self.topic_totals)[::-1]

    # -- provenance ----------------------------------------------------------

    @property
    def lineage(self) -> dict[str, Any] | None:
        """The model-generation record (``generation``/``parent``/
        ``created_at``), or None for a model built without one (by hand,
        not through ``export_model``)."""
        lin = self.metadata.get("lineage")
        return dict(lin) if isinstance(lin, Mapping) else None

    @property
    def generation(self) -> str | None:
        """Shorthand for ``lineage["generation"]`` (None without lineage)."""
        lin = self.lineage
        return lin.get("generation") if lin else None

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the versioned ``.npz`` artifact (schema version 2)."""
        from repro.model.serialize import save_topic_model

        save_topic_model(self, path)

    @classmethod
    def load(cls, path: str | Path) -> TopicModel:
        """Read a saved schema-v2 artifact, digest-verified.

        A file that is unreadable, of another version or kind, or whose
        digest is missing or does not match raises ``ValueError``.
        """
        from repro.model.serialize import load_topic_model

        return load_topic_model(path)

    def describe(self) -> dict[str, Any]:
        """Scalar digest for logs and the CLI."""
        return {
            "num_topics": self.num_topics,
            "num_words": self.num_words,
            "num_tokens": self.num_tokens,
            "alpha": self.alpha,
            "beta": self.beta,
            "has_vocabulary": self.vocabulary is not None,
            "lineage": self.lineage,
            "metadata": dict(self.metadata),
        }
