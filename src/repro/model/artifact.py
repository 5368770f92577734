"""The trained-model artifact: a frozen, validated ``TopicModel``.

Algorithm 1 ends by collecting the trained model from the devices; what
a consumer actually needs from that collection is small and identical
for every algorithm in the repo: the topic-word count matrix ``phi``,
its row sums, the Dirichlet hyper-parameters, and (optionally) the
vocabulary that maps word ids back to terms.  :class:`TopicModel` is
that contract — immutable, invariant-checked at construction, and
independent of which of the five trainers produced it.  Its top words
are ranked from ``phi`` by :func:`top_word_ids`, the repo's one
top-words rule, so they read the same before a save and after a load.

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

__all__ = ["TopicModel", "make_lineage", "top_word_ids"]


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


def top_word_ids(phi: np.ndarray, n: int) -> np.ndarray:
    """Ids of the ``n`` highest-count words of each topic row of ``phi``.

    The one ranking rule of the repo: count descending, ties by
    ascending word id — a stable sort, so the cut at ``n`` is fully
    specified too.  ``phi`` is one topic row (``[V]``) or the whole
    matrix (``[K, V]``); the result has the same rank with its last
    axis cut to ``min(n, V)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.argsort(-np.asarray(phi), axis=-1, kind="stable")[..., :n]


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

    def top_words(self, topic: int, n: int = 10) -> np.ndarray:
        """Word ids with the highest count under ``topic``, by
        :func:`top_word_ids`'s rule (ties by ascending word id)."""
        if not (0 <= topic < self.num_topics):
            raise IndexError(f"topic {topic} out of range")
        return top_word_ids(self.phi[topic], n)

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
