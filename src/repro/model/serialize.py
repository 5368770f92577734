"""Versioned on-disk format for :class:`~repro.model.artifact.TopicModel`.

One ``.npz`` per model, self-describing via two scalar fields:

========  =======================================================
version   schema version, 2 (the only one this build reads)
kind      ``"model"`` (checkpoints use ``"checkpoint"``; see
          :mod:`repro.core.snapshot`)
========  =======================================================

A v2 file holds ``phi``, ``topic_totals``, ``alpha``, ``beta``,
``num_topics``, ``num_words``, an optional ``vocab`` (one term per word
id) and ``metadata_json``: JSON provenance (algorithm, iterations,
options, the ``lineage`` model-generation record —
generation/parent/created_at — that hot swap and rollback key on) and
the ``integrity`` record, a sha256 digest over the payload arrays that
every load recomputes and compares (see :mod:`repro.integrity`).  Older
v2 files also carry a serialized top-word index: the digest covers it,
and the loader never reads it (top words are ranked from ``phi``).

Loaders validate invariants (shapes, non-negative counts, totals
matching phi) and reject other versions, wrong kinds and files without
a matching digest rather than silently mis-serving.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro import faults
from repro.core.snapshot import atomic_savez
from repro.corpus.vocab import Vocabulary
from repro.integrity import integrity_record, read_npz, verify_payload
from repro.model.artifact import TopicModel

__all__ = [
    "SCHEMA_VERSION",
    "save_topic_model",
    "load_topic_model",
]

#: The schema version :func:`save_topic_model` writes and
#: :func:`load_topic_model` reads.
SCHEMA_VERSION = 2

#: Fields every model artifact carries (``vocab`` is optional).
_REQUIRED_FIELDS = (
    "phi", "topic_totals", "alpha", "beta", "num_topics", "num_words",
)


def save_topic_model(model: TopicModel, path: str | Path) -> None:
    """Write ``model`` to ``path`` as a schema-v2 ``.npz``.

    The payload arrays are digested (sha256) and the digest stored in
    ``metadata_json["integrity"]``, so :func:`load_topic_model` can
    detect a truncated or bit-flipped file instead of serving it.
    """
    payload: dict = {
        "version": SCHEMA_VERSION,
        "kind": "model",
        "phi": model.phi,
        "topic_totals": model.topic_totals,
        "alpha": model.alpha,
        "beta": model.beta,
        "num_topics": model.num_topics,
        "num_words": model.num_words,
    }
    if model.vocabulary is not None:
        payload["vocab"] = np.asarray(list(model.vocabulary), dtype=np.str_)
    metadata = {**model.metadata, "integrity": integrity_record(payload)}
    payload["metadata_json"] = json.dumps(
        metadata, default=str, sort_keys=True
    )
    # RPR501: stage + os.replace, so a crash mid-save can never leave a
    # torn artifact for the serving tier to trip over.
    atomic_savez(Path(path), payload)


def load_topic_model(path: str | Path) -> TopicModel:
    """Read a schema-v2 model artifact into a :class:`TopicModel`.

    Raises
    ------
    FileNotFoundError
        Nothing at ``path``.
    ValueError
        Unreadable file, missing/unsupported version, wrong kind,
        missing fields, no or mismatching digest, or violated
        invariants ("corrupted").
    """
    data = read_npz(path)
    # Chaos hook (no-op unless armed): flip one phi count after the read
    # so the *real* digest verification below catches the corruption —
    # exactly what a bit-rotted or torn file would look like.
    if "phi" in data and faults.check(
        "artifact_corrupt", op="load", path=Path(path).name
    ):
        data["phi"] = data["phi"].copy()
        data["phi"].flat[0] += 1
    if "version" not in data:
        raise ValueError("not a repro snapshot (no version field)")
    if str(data.get("kind")) != "model":
        raise ValueError(f"not a model artifact: kind={data.get('kind')}")
    version = int(data["version"])
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"model format version {version} not supported (this build "
            f"reads version {SCHEMA_VERSION}; re-save older files with "
            f"repro 2.0.0)"
        )
    for key in _REQUIRED_FIELDS:
        if key not in data:
            raise ValueError(f"model artifact is missing field {key!r}")
    try:
        metadata = verify_payload(data)
    except ValueError as exc:
        raise ValueError(f"model artifact corrupted: {exc}") from exc
    phi = data["phi"]
    if phi.ndim != 2 or phi.shape[0] != int(data["num_topics"]) or (
        phi.shape[1] != int(data["num_words"])
    ):
        raise ValueError("model artifact corrupted: inconsistent phi shape")
    vocabulary = None
    if "vocab" in data:
        vocabulary = Vocabulary([str(t) for t in data["vocab"]])
    try:
        return TopicModel(
            phi=phi,
            topic_totals=data["topic_totals"],
            alpha=float(data["alpha"]),
            beta=float(data["beta"]),
            vocabulary=vocabulary,
            metadata=metadata,
        )
    except ValueError as exc:
        raise ValueError(f"model artifact corrupted: {exc}") from exc
