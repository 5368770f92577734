"""Artifact integrity: the one reader of every durable ``.npz``.

Durability comes from verifying data at every hand-off, not from
assuming writes succeeded.  Every ``.npz`` the repo writes (model
artifacts, :mod:`repro.model.serialize`; checkpoints,
:mod:`repro.core.snapshot`; corpus-store shards,
:mod:`repro.corpus.store`) embeds a sha256 digest over its payload
arrays inside ``metadata_json``.  Every loader reads the file with
:func:`read_npz` and checks it with :func:`verify_payload`, so a
truncated or bit-flipped file is a typed ``ValueError`` at load time,
never a traceback and never a silently mis-served model.  A file
without a digest record is rejected the same way: an unverifiable file
cannot be told apart from a tampered one.

The digest is canonical and load-stable: arrays are hashed in sorted key
order, each as ``name NUL dtype NUL shape-bytes data-bytes`` with the
data forced C-contiguous, and ``metadata_json`` itself is excluded
(it is where the digest lives).  ``np.savez``/``np.load`` round-trip
array bytes exactly, so save-time and load-time digests agree.

:func:`verify_artifact` checks a file **offline** — no corpus, no model
construction — which is what ``repro verify-artifact PATH`` uses.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
import zlib
from collections.abc import Mapping
from pathlib import Path

import numpy as np

__all__ = [
    "DIGEST_ALGORITHM",
    "digest_arrays",
    "integrity_record",
    "read_npz",
    "verify_payload",
    "verify_artifact",
]

DIGEST_ALGORITHM = "sha256"

#: Payload keys excluded from the digest: ``metadata_json`` carries the
#: digest itself, so including it would be circular.
EXCLUDED_KEYS = ("metadata_json",)


def digest_arrays(arrays: Mapping[str, object]) -> str:
    """Canonical sha256 over a savez payload (sorted keys, raw bytes)."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        if name in EXCLUDED_KEYS:
            continue
        arr = np.asarray(arrays[name])
        h.update(name.encode())
        h.update(b"\0")
        h.update(arr.dtype.str.encode("ascii"))
        h.update(b"\0")
        h.update(np.asarray(arr.shape, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def integrity_record(arrays: Mapping[str, object]) -> dict:
    """The ``metadata_json["integrity"]`` entry written at save time."""
    return {"algorithm": DIGEST_ALGORITHM, "digest": digest_arrays(arrays)}


def read_npz(path: str | Path) -> dict[str, np.ndarray]:
    """Every array of the ``.npz`` at ``path``, read eagerly.

    A file that exists but is no readable ``.npz`` (truncated,
    byte-flipped, another format) raises ``ValueError("unreadable:
    ...")``; a missing one raises ``FileNotFoundError``.
    """
    try:
        # Our own handle: np.load(path) leaves its handle to the garbage
        # collector when the archive fails to open.
        with open(path, "rb") as fh:
            loaded = np.load(fh, allow_pickle=False)
            if not isinstance(loaded, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            with loaded as z:
                return {k: z[k] for k in z.files}
    except FileNotFoundError:
        raise
    except (
        OSError,
        ValueError,
        # A flipped byte often trips the zip container (its CRC, its
        # deflate stream, its header fields) before the payload digest
        # gets a chance; a file cut short can end mid-stream.
        zipfile.BadZipFile,
        zlib.error,
        EOFError,
        NotImplementedError,
        RuntimeError,
    ) as exc:
        raise ValueError(f"unreadable: {path}: {exc}") from exc


def verify_payload(arrays: Mapping[str, object]) -> dict:
    """Check a payload against the digest its ``metadata_json`` records.

    Returns the parsed metadata, its ``integrity`` record marked
    ``status: "verified"``.  Unparseable metadata, no sha256 record or a
    digest mismatch raises ``ValueError``.
    """
    try:
        metadata = json.loads(str(arrays["metadata_json"]))
    except KeyError:
        raise ValueError("no integrity digest recorded") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad metadata: {exc}") from exc
    stored = metadata.get("integrity") if isinstance(metadata, dict) else None
    if (
        not isinstance(stored, dict)
        or stored.get("algorithm") != DIGEST_ALGORITHM
        or "digest" not in stored
    ):
        raise ValueError("no integrity digest recorded")
    recomputed = digest_arrays(arrays)
    if recomputed != stored["digest"]:
        raise ValueError(
            f"integrity digest mismatch: stored "
            f"{stored['digest'][:12]}..., recomputed {recomputed[:12]}... "
            f"— the artifact is corrupted"
        )
    metadata["integrity"] = {**stored, "status": "verified"}
    return metadata


def verify_artifact(path: str | Path) -> dict:
    """Offline integrity check of any repro ``.npz`` (model or checkpoint).

    Needs neither a corpus nor a model build: reads the file, recomputes
    the payload digest, and compares it against the one recorded in
    ``metadata_json``.  Returns a JSON-ready report::

        {"path", "kind", "version", "status", "digest",
         "stored_digest", "detail"}

    ``status`` is ``"verified"`` (digests match) or ``"corrupt"``
    (mismatch, no digest recorded, or the file is not a readable repro
    artifact at all).

    Covers every durable file the repo writes: model artifacts,
    checkpoints and corpus-store shards all go through the npz payload
    digest; a ``.json`` path is treated as a corpus-store manifest and
    checked against its own ``manifest_sha256``.
    """
    path = Path(path)
    report: dict = {"path": str(path), "kind": None, "version": None}
    if path.suffix == ".json":
        return _verify_manifest(path, report)
    try:
        data = read_npz(path)
    except (FileNotFoundError, ValueError) as exc:
        report.update(status="corrupt", detail=str(exc))
        return report
    if "version" in data:
        report["version"] = int(data["version"])
    if "kind" in data:
        report["kind"] = str(data["kind"])
    try:
        digest = verify_payload(data)["integrity"]["digest"]
    except ValueError as exc:
        report.update(
            status="corrupt", digest=digest_arrays(data), detail=str(exc)
        )
        return report
    report.update(
        status="verified", digest=digest, stored_digest=digest,
        detail="payload digest matches",
    )
    return report


def _verify_manifest(path: Path, report: dict) -> dict:
    """Offline check of a corpus-store ``manifest.json``.

    Verifies only the manifest file itself (its self-digest); shard
    payloads are separate artifacts with their own reports, and the
    whole-store view (shards against manifest entries, quarantine) is
    ``repro corpus verify``.
    """
    # Imported lazily: the store module depends on this one.
    from repro.corpus.store import (
        ManifestCorrupt,
        StoreIncomplete,
        load_manifest,
        manifest_digest,
    )

    try:
        manifest = load_manifest(path.parent, allow_incomplete=True)
    except (FileNotFoundError, ManifestCorrupt, StoreIncomplete) as exc:
        report.update(status="corrupt", detail=str(exc))
        return report
    report.update(
        kind=str(manifest.get("kind")),
        version=manifest.get("schema_version"),
        digest=manifest_digest(manifest),
        stored_digest=manifest.get("manifest_sha256"),
        status="verified",
        detail="manifest digest matches",
    )
    return report
