"""Durable sharded corpus store: integrity-checked shards + manifest.

The in-RAM :class:`~repro.corpus.document.Corpus` assumes the whole token
array fits in memory and arrives in one shot.  This module is the
out-of-core, durability-first alternative: a directory holding

- ``shard-00000.npz``, ``shard-00001.npz``, ... — fixed-document-count
  shards, each an npz of the shard's token ``word_ids`` plus local
  ``doc_offsets``, written through
  :func:`repro.core.snapshot.atomic_savez` and carrying a
  :mod:`repro.integrity` sha256 digest over its arrays;
- ``manifest.json`` — schema-versioned, atomically replaced after every
  shard, covered by its own sha256; records shard order, per-shard
  doc/token counts and digests, corpus dimensions, the vocabulary hash
  and ingestion progress;
- ``vocab.txt`` (optional) — the vocabulary, hashed into the manifest;
- ``quarantine/`` — where :func:`verify_store` moves shards that fail
  verification.

Durability model (cf. the LT-codes line of storage work: redundancy is
useless without **verification on every read**):

- every write is atomic (tmp sibling + ``os.replace``), so a SIGKILL at
  any instant leaves either N fully-written shards plus a manifest that
  resumes ingestion at shard N+1, or an orphaned complete shard ahead of
  the manifest frontier that the resume simply rewrites — never a torn
  file and never a silently short corpus;
- every shard read re-verifies the digest recorded at write time; a
  mismatch is a typed :class:`ShardCorrupt` naming the shard, and
  ``repro corpus verify --quarantine`` moves the bad file aside and
  rolls the manifest frontier back so re-ingestion repairs the store;
- the manifest verifies itself the same way (:class:`ManifestCorrupt`),
  and is a pure function of the corpus content — an interrupted and
  resumed ingestion produces a byte-identical manifest to an
  uninterrupted one (asserted by tests).

Training reads through :class:`CorpusStore`, which satisfies enough of
the ``Corpus`` surface (``num_docs``/``num_tokens``/``doc_offsets``/
sliceable ``word_ids``) that ``partition_by_tokens`` and ``encode_chunk``
work unchanged: each chunk window is materialised from only the shards
it overlaps, so the full corpus token array is never built in RAM, and
the resulting training run is **bit-identical** to the in-RAM one
(draws, phi, likelihood trajectory — golden-asserted).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro import faults
from repro.corpus.document import Corpus
from repro.corpus.io import corpus_from_triples, iter_uci_bow
from repro.corpus.vocab import Vocabulary
from repro.integrity import (
    digest_arrays,
    integrity_record,
    read_npz,
    verify_payload,
)

__all__ = [
    "DEFAULT_DOCS_PER_SHARD",
    "MANIFEST_NAME",
    "QUARANTINE_DIR",
    "STORE_SCHEMA_VERSION",
    "VOCAB_NAME",
    "CorpusStore",
    "CorpusStoreError",
    "ManifestCorrupt",
    "ShardCorrupt",
    "StoreIncomplete",
    "ingest_uci_bow",
    "load_manifest",
    "manifest_digest",
    "shard_name",
    "verify_store",
]

#: Manifest schema version; loaders reject unknown versions.
STORE_SCHEMA_VERSION = 1

MANIFEST_NAME = "manifest.json"
VOCAB_NAME = "vocab.txt"
QUARANTINE_DIR = "quarantine"

#: Documents per shard.  Fixed per store (recorded in the manifest):
#: resume and uninterrupted ingestion must cut identical shards.
DEFAULT_DOCS_PER_SHARD = 4096

#: Version field written inside each shard npz.
SHARD_FORMAT_VERSION = 1

#: Verified shards kept hot by a :class:`CorpusStore` reader.  Two is
#: enough for the sequential window reads training performs (a chunk
#: boundary straddles at most one shard seam); kept deliberately tiny so
#: out-of-core stays out of core.
_SHARD_CACHE_SLOTS = 2


class CorpusStoreError(ValueError):
    """Base class for corpus-store integrity/usage errors."""


class ShardCorrupt(CorpusStoreError):
    """A shard failed digest or invariant verification.

    ``shard`` names the offending file (relative to the store root), so
    operators can quarantine exactly the bad unit — never the store.
    """

    def __init__(self, shard: str, detail: str):
        super().__init__(f"corpus shard {shard!r} is corrupt: {detail}")
        self.shard = shard
        self.detail = detail


class ManifestCorrupt(CorpusStoreError):
    """The manifest failed its digest, schema, or invariant checks."""


class StoreIncomplete(CorpusStoreError):
    """The manifest records an unfinished ingestion (resume it first)."""


def shard_name(index: int) -> str:
    """Canonical shard filename for shard ``index``."""
    return f"shard-{index:05d}.npz"


# -- manifest ----------------------------------------------------------------


def manifest_digest(manifest: dict) -> str:
    """Canonical sha256 over a manifest's content.

    Computed over the compact, key-sorted JSON encoding of everything
    except the ``manifest_sha256`` field itself (where the digest
    lives).
    """
    body = {k: v for k, v in manifest.items() if k != "manifest_sha256"}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def write_manifest(root: str | Path, manifest: dict) -> Path:
    """Stamp the digest and atomically replace the store's manifest."""
    from repro.core.snapshot import atomic_write_json

    manifest = dict(manifest)
    manifest["manifest_sha256"] = manifest_digest(manifest)
    return atomic_write_json(Path(root) / MANIFEST_NAME, manifest)


def load_manifest(root: str | Path, allow_incomplete: bool = False) -> dict:
    """Read and verify the manifest of the store at ``root``.

    Raises
    ------
    FileNotFoundError
        No manifest — ``root`` is not a corpus store.
    ManifestCorrupt
        Unparseable JSON, digest mismatch, unknown schema version, or a
        malformed shard table.
    StoreIncomplete
        The recorded ingestion never finished (unless
        ``allow_incomplete``).
    """
    path = Path(root) / MANIFEST_NAME
    try:
        raw = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise FileNotFoundError(
            f"no corpus store at {Path(root)} (missing {MANIFEST_NAME})"
        ) from None
    except (OSError, UnicodeDecodeError) as exc:
        # A flipped byte can break UTF-8 before JSON even parses.
        raise ManifestCorrupt(f"manifest is unreadable: {exc}") from exc
    try:
        manifest = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ManifestCorrupt(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("kind") != "corpus-store":
        raise ManifestCorrupt("manifest is not a corpus-store manifest")
    version = manifest.get("schema_version")
    if version != STORE_SCHEMA_VERSION:
        raise ManifestCorrupt(
            f"manifest schema version {version!r} not supported (this "
            f"build reads version {STORE_SCHEMA_VERSION})"
        )
    stored = manifest.get("manifest_sha256")
    recomputed = manifest_digest(manifest)
    if stored != recomputed:
        raise ManifestCorrupt(
            f"manifest digest mismatch: stored {str(stored)[:12]}..., "
            f"recomputed {recomputed[:12]}... — the manifest is corrupted"
        )
    shards = manifest.get("shards")
    if not isinstance(shards, list):
        raise ManifestCorrupt("manifest has no shard table")
    for i, entry in enumerate(shards):
        if not isinstance(entry, dict) or entry.get("name") != shard_name(i):
            raise ManifestCorrupt(f"shard table entry {i} is malformed")
    if not manifest.get("complete") and not allow_incomplete:
        done = len(shards)
        raise StoreIncomplete(
            f"store at {Path(root)} records an unfinished ingestion "
            f"({done} shard(s) written); rerun `repro ingest` to resume"
        )
    return manifest


# -- shards ------------------------------------------------------------------


def _write_shard(
    root: Path,
    index: int,
    doc_lo: int,
    doc_hi: int,
    num_words: int,
    word_ids: np.ndarray,
    doc_offsets: np.ndarray,
) -> dict:
    """Atomically write shard ``index``; return its manifest entry."""
    from repro.core.snapshot import atomic_savez

    payload: dict[str, object] = {
        "version": SHARD_FORMAT_VERSION,
        "kind": "corpus-shard",
        "shard_index": index,
        "doc_lo": doc_lo,
        "doc_hi": doc_hi,
        "num_words": num_words,
        "word_ids": np.ascontiguousarray(word_ids, dtype=np.int32),
        "doc_offsets": np.ascontiguousarray(doc_offsets, dtype=np.int64),
    }
    digest = digest_arrays(payload)
    payload["metadata_json"] = json.dumps(
        {"integrity": integrity_record(payload)}
    )
    atomic_savez(root / shard_name(index), payload)
    return {
        "name": shard_name(index),
        "doc_lo": int(doc_lo),
        "doc_hi": int(doc_hi),
        "num_docs": int(doc_hi - doc_lo),
        "num_tokens": int(word_ids.shape[0]),
        "sha256": digest,
    }


def _read_shard(
    root: Path, index: int, expect: dict | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Load and verify shard ``index``; returns (word_ids, doc_offsets).

    Every read recomputes the payload digest against the one recorded at
    write time (and, when a manifest ``expect`` entry is given, against
    the manifest's copy too) — a flipped bit anywhere in the shard is a
    typed :class:`ShardCorrupt`, never a silently wrong corpus.
    """
    name = shard_name(index)
    path = root / name
    try:
        faults.raise_if("shard_read_error", shard=name, op="load")
        data = read_npz(path)
    except FileNotFoundError:
        raise ShardCorrupt(name, "missing from the store directory") from None
    except ValueError as exc:
        raise ShardCorrupt(name, str(exc)) from exc
    except faults.FaultInjected as exc:
        raise ShardCorrupt(name, f"unreadable: {exc}") from exc
    if faults.check("shard_corrupt", shard=name, op="load") is not None:
        # Deterministic stand-in for real bit rot: flip one token id
        # after the bytes left the disk, so the digest check below must
        # catch a payload that is genuinely not what was written.
        data["word_ids"] = data["word_ids"].copy()
        if data["word_ids"].size:
            data["word_ids"][0] ^= 1
        else:  # empty shard: corrupt the offsets instead
            data["doc_offsets"] = data["doc_offsets"].copy()
            data["doc_offsets"][0] += 1
    if str(data.get("kind")) != "corpus-shard":
        raise ShardCorrupt(name, f"not a corpus shard: kind={data.get('kind')}")
    try:
        digest = verify_payload(data)["integrity"]["digest"]
    except ValueError as exc:
        raise ShardCorrupt(name, str(exc)) from exc
    if expect is not None and digest != expect.get("sha256"):
        raise ShardCorrupt(
            name,
            "digest does not match the manifest entry — shard and "
            "manifest are from different ingestions",
        )
    word_ids = data["word_ids"]
    doc_offsets = data["doc_offsets"]
    if (
        doc_offsets.ndim != 1
        or doc_offsets.shape[0] < 1
        or doc_offsets[0] != 0
        or doc_offsets[-1] != word_ids.shape[0]
        or np.any(np.diff(doc_offsets) < 0)
    ):
        raise ShardCorrupt(name, "doc_offsets invariants violated")
    if expect is not None:
        if doc_offsets.shape[0] - 1 != expect["num_docs"]:
            raise ShardCorrupt(
                name,
                f"holds {doc_offsets.shape[0] - 1} documents, manifest "
                f"records {expect['num_docs']}",
            )
        if word_ids.shape[0] != expect["num_tokens"]:
            raise ShardCorrupt(
                name,
                f"holds {word_ids.shape[0]} tokens, manifest records "
                f"{expect['num_tokens']}",
            )
    return word_ids, doc_offsets


def _quarantine_file(root: Path, name: str) -> Path:
    """Move ``root/name`` into the quarantine directory (replace-safe)."""
    qdir = root / QUARANTINE_DIR
    qdir.mkdir(exist_ok=True)
    target = qdir / name
    os.replace(root / name, target)
    return target


# -- the reader --------------------------------------------------------------


class _StoreTokenView:
    """Sliceable, disk-backed stand-in for ``Corpus.word_ids``.

    Supports exactly what the chunk encoder and subset windows need —
    ``view[lo:hi]`` returning a real ``int32`` array assembled from the
    overlapping shards (each read digest-verified) — so the full token
    array never has to exist in memory.
    """

    def __init__(self, store: CorpusStore):
        self._store = store

    @property
    def shape(self) -> tuple[int]:
        return (self._store.num_tokens,)

    @property
    def size(self) -> int:
        return self._store.num_tokens

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.int32)

    def __len__(self) -> int:
        return self._store.num_tokens

    def __getitem__(self, key) -> np.ndarray:
        if not isinstance(key, slice) or key.step not in (None, 1):
            raise TypeError(
                "store-backed word_ids supports contiguous slices only"
            )
        lo, hi, _ = key.indices(self._store.num_tokens)
        return self._store._read_tokens(lo, hi)


class CorpusStore:
    """Read-only view over a complete on-disk sharded corpus.

    Satisfies the slice of the :class:`~repro.corpus.document.Corpus`
    surface that partitioning, chunk encoding and the trainers consume
    (``num_docs``, ``num_tokens``, ``num_words``, ``doc_offsets``,
    sliceable ``word_ids``, ``subset``), reading each window from only
    the shards it overlaps and verifying every shard's digest on read.
    """

    def __init__(self, root: str | Path, manifest: dict):
        self.root = Path(root)
        self.manifest = manifest
        shards = manifest["shards"]
        self.num_docs = int(manifest["num_docs"])
        self.num_words = int(manifest["num_words"])
        self.num_tokens = int(manifest["num_tokens"])
        #: token offset of each shard: int64[S+1]
        self._token_starts = np.zeros(len(shards) + 1, dtype=np.int64)
        np.cumsum(
            [s["num_tokens"] for s in shards], out=self._token_starts[1:]
        )
        #: document offset of each shard: int64[S+1]
        self._doc_starts = np.zeros(len(shards) + 1, dtype=np.int64)
        np.cumsum([s["num_docs"] for s in shards], out=self._doc_starts[1:])
        self._doc_offsets: np.ndarray | None = None
        self._vocabulary: Vocabulary | None = None
        self._vocab_loaded = False
        #: tiny LRU of verified shards (index -> (word_ids, doc_offsets))
        self._cache: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = (
            OrderedDict()
        )

    @classmethod
    def open(cls, root: str | Path) -> CorpusStore:
        """Open a **complete** store (manifest verified at open)."""
        return cls(root, load_manifest(root))

    @property
    def num_shards(self) -> int:
        return len(self.manifest["shards"])

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"CorpusStore(D={self.num_docs}, V={self.num_words}, "
            f"T={self.num_tokens}, shards={self.num_shards})"
        )

    # -- shard access ------------------------------------------------------

    def _shard(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Shard arrays, via the verified-read LRU cache."""
        hit = self._cache.get(index)
        if hit is not None:
            self._cache.move_to_end(index)
            return hit
        arrays = _read_shard(
            self.root, index, expect=self.manifest["shards"][index]
        )
        self._cache[index] = arrays
        while len(self._cache) > _SHARD_CACHE_SLOTS:
            self._cache.popitem(last=False)
        return arrays

    def _read_tokens(self, lo: int, hi: int) -> np.ndarray:
        """Tokens ``[lo, hi)`` assembled from the overlapping shards."""
        if not (0 <= lo <= hi <= self.num_tokens):
            raise ValueError(f"invalid token range [{lo}, {hi})")
        out = np.empty(hi - lo, dtype=np.int32)
        if hi == lo:
            return out
        first = int(
            np.searchsorted(self._token_starts, lo, side="right") - 1
        )
        pos = 0
        for index in range(first, self.num_shards):
            start = int(self._token_starts[index])
            if start >= hi:
                break
            word_ids, _ = self._shard(index)
            a = max(lo - start, 0)
            b = min(hi - start, word_ids.shape[0])
            if b > a:
                out[pos : pos + (b - a)] = word_ids[a:b]
                pos += b - a
        if pos != out.shape[0]:  # pragma: no cover - defensive
            raise ShardCorrupt(
                shard_name(first), "shard token counts do not cover the range"
            )
        return out

    # -- Corpus surface ----------------------------------------------------

    @property
    def doc_offsets(self) -> np.ndarray:
        """Global CSR document offsets (``int64[D+1]``), lazily assembled.

        Built once by a sequential digest-verified pass over every
        shard's (small) local offsets; the token arrays stream through
        the two-slot cache and are not retained.
        """
        if self._doc_offsets is None:
            out = np.zeros(self.num_docs + 1, dtype=np.int64)
            for index in range(self.num_shards):
                _, local = self._shard(index)
                d0 = int(self._doc_starts[index])
                t0 = int(self._token_starts[index])
                out[d0 + 1 : d0 + local.shape[0]] = local[1:] + t0
            if self.num_docs and out[-1] != self.num_tokens:
                raise ManifestCorrupt(
                    "shard doc_offsets do not sum to the manifest token count"
                )
            self._doc_offsets = out
        return self._doc_offsets

    @property
    def word_ids(self) -> _StoreTokenView:
        return _StoreTokenView(self)

    @property
    def vocabulary(self) -> Vocabulary | None:
        """The stored vocabulary (hash-verified), or ``None``."""
        if not self._vocab_loaded:
            entry = self.manifest.get("vocab")
            if entry:
                path = self.root / entry["file"]
                try:
                    blob = path.read_bytes()
                except OSError as exc:
                    raise ManifestCorrupt(
                        f"vocabulary file {entry['file']!r} unreadable: {exc}"
                    ) from exc
                digest = hashlib.sha256(blob).hexdigest()
                if digest != entry.get("sha256"):
                    raise ManifestCorrupt(
                        f"vocabulary file {entry['file']!r} digest mismatch "
                        "— the vocabulary is corrupted"
                    )
                terms = [
                    t for t in blob.decode("utf-8").splitlines() if t
                ]
                self._vocabulary = Vocabulary(terms)
            self._vocab_loaded = True
        return self._vocabulary

    def doc_lengths(self) -> np.ndarray:
        return np.diff(self.doc_offsets)

    def subset(self, doc_lo: int, doc_hi: int) -> Corpus:
        """In-RAM :class:`Corpus` window over documents ``[doc_lo, doc_hi)``.

        Reads only the overlapping shards; the result is array-identical
        to ``corpus.subset(doc_lo, doc_hi)`` on the ingested corpus.
        """
        if not (0 <= doc_lo <= doc_hi <= self.num_docs):
            raise ValueError(f"invalid document range [{doc_lo}, {doc_hi})")
        offsets = self.doc_offsets
        lo = int(offsets[doc_lo])
        hi = int(offsets[doc_hi])
        return Corpus(
            offsets[doc_lo : doc_hi + 1] - lo,
            self._read_tokens(lo, hi),
            self.num_words,
        )

    def load(self) -> Corpus:
        """Materialise the full corpus in RAM (tests, small stores)."""
        full = self.subset(0, self.num_docs)
        if self.vocabulary is None:
            return full
        return Corpus(
            full.doc_offsets, full.word_ids, self.num_words, self.vocabulary
        )


# -- verification ------------------------------------------------------------


def verify_store(root: str | Path, quarantine: bool = False) -> dict:
    """Offline integrity check of every durable file in a store.

    Verifies the manifest digest, every shard's payload digest (against
    both its own record and the manifest's copy), and the vocabulary
    hash.  With ``quarantine=True``, files that fail are moved into
    ``quarantine/`` and the manifest frontier is rolled back to the
    first bad shard (``complete`` flips off), so the next
    ``repro ingest`` re-ingests exactly the damaged suffix.

    Returns a JSON-ready report::

        {"path", "status": "verified"|"corrupt"|"incomplete",
         "num_shards", "shards": [{"name", "status", "detail"}...],
         "quarantined": [names...], "detail"}
    """
    root = Path(root)
    report: dict = {
        "path": str(root),
        "status": "verified",
        "num_shards": 0,
        "shards": [],
        "quarantined": [],
    }
    try:
        manifest = load_manifest(root, allow_incomplete=True)
    except (ManifestCorrupt, FileNotFoundError) as exc:
        report.update(status="corrupt", detail=str(exc))
        if quarantine and isinstance(exc, ManifestCorrupt):
            report["quarantined"].append(MANIFEST_NAME)
            _quarantine_file(root, MANIFEST_NAME)
        return report
    shards = manifest["shards"]
    report["num_shards"] = len(shards)
    first_bad: int | None = None
    for index, entry in enumerate(shards):
        try:
            _read_shard(root, index, expect=entry)
        except ShardCorrupt as exc:
            report["shards"].append(
                {"name": exc.shard, "status": "corrupt", "detail": exc.detail}
            )
            if first_bad is None:
                first_bad = index
            if quarantine and (root / entry["name"]).exists():
                _quarantine_file(root, entry["name"])
                report["quarantined"].append(entry["name"])
        else:
            report["shards"].append(
                {"name": entry["name"], "status": "verified", "detail": ""}
            )
    vocab_entry = manifest.get("vocab")
    if vocab_entry:
        path = root / vocab_entry["file"]
        blob = path.read_bytes() if path.exists() else None
        if (
            blob is None
            or hashlib.sha256(blob).hexdigest() != vocab_entry.get("sha256")
        ):
            report.update(
                status="corrupt",
                detail=f"vocabulary file {vocab_entry['file']!r} "
                + ("missing" if blob is None else "digest mismatch"),
            )
    if first_bad is not None:
        report["status"] = "corrupt"
        report.setdefault(
            "detail", f"{sum(1 for s in report['shards'] if s['status'] != 'verified')} corrupt shard(s)"
        )
        if quarantine:
            # Roll the frontier back: everything from the first bad
            # shard on is re-ingested by the next `repro ingest`.
            manifest["shards"] = shards[:first_bad]
            manifest["complete"] = False
            manifest["num_tokens"] = int(
                sum(s["num_tokens"] for s in manifest["shards"])
            )
            write_manifest(root, manifest)
            report["resume_from_shard"] = first_bad
    elif not manifest.get("complete"):
        report.update(
            status="incomplete",
            detail="ingestion unfinished; rerun `repro ingest` to resume",
        )
    return report


# -- ingestion ---------------------------------------------------------------


def _verified_resume_prefix(
    root: Path, manifest: dict, quarantine: bool = True
) -> list[dict]:
    """Verify the recorded shards; return the trustworthy prefix.

    A shard that fails verification is quarantined and everything from
    it on is dropped from the resume frontier (it will be re-ingested).
    """
    good: list[dict] = []
    for index, entry in enumerate(manifest["shards"]):
        try:
            _read_shard(root, index, expect=entry)
        except ShardCorrupt as exc:
            if quarantine and (root / entry["name"]).exists():
                _quarantine_file(root, entry["name"])
            del exc
            break
        good.append(entry)
    return good


def ingest_uci_bow(
    docword_path: str | Path,
    store_dir: str | Path,
    vocab_path: str | Path | None = None,
    docs_per_shard: int = DEFAULT_DOCS_PER_SHARD,
    chunk_triples: int | None = None,
) -> dict:
    """Ingest a UCI bag-of-words file into a sharded store; returns the manifest.

    Crash-safe and resumable: shards and the manifest are written
    atomically in lock-step (shard ``k`` first, then the manifest that
    records it), so a SIGKILL at any point leaves a store that this
    function resumes from the first missing shard.  Already-verified
    shards are never rewritten; a recorded shard that fails its digest
    check on resume is quarantined and re-ingested.  The finished
    manifest is byte-identical whether or not the ingestion was ever
    interrupted.

    The source is parsed through the bounded-memory chunked reader
    (:func:`repro.corpus.io.iter_uci_bow`); peak ingest memory is one
    shard plus one parser chunk, regardless of corpus size.

    Raises
    ------
    ValueError
        Malformed source, a source not sorted by document id, or a
        store ingested from different parameters/dimensions.
    """
    if docs_per_shard < 1:
        raise ValueError(f"docs_per_shard must be >= 1, got {docs_per_shard}")
    root = Path(store_dir)
    root.mkdir(parents=True, exist_ok=True)

    kwargs = {} if chunk_triples is None else {"chunk_triples": chunk_triples}
    stream = iter_uci_bow(docword_path, **kwargs)
    header = next(stream)
    num_shards = -(-header.num_docs // docs_per_shard) if header.num_docs else 0

    existing: dict | None = None
    if (root / MANIFEST_NAME).exists():
        existing = load_manifest(root, allow_incomplete=True)
        same = (
            existing["num_docs"] == header.num_docs
            and existing["num_words"] == header.num_words
            and existing["docs_per_shard"] == docs_per_shard
            and existing.get("source", {}).get("nnz") == header.nnz
        )
        if not same:
            raise ValueError(
                f"store at {root} was ingested from a different source or "
                "docs_per_shard; refusing to mix corpora (use a fresh "
                "directory or delete the store)"
            )
        if existing.get("complete"):
            return existing

    shards: list[dict] = (
        _verified_resume_prefix(root, existing) if existing else []
    )
    start_shard = len(shards)
    tokens_done = int(sum(s["num_tokens"] for s in shards))

    manifest: dict = {
        "schema_version": STORE_SCHEMA_VERSION,
        "kind": "corpus-store",
        "num_docs": header.num_docs,
        "num_words": header.num_words,
        "num_tokens": tokens_done,
        "docs_per_shard": docs_per_shard,
        "source": {"nnz": header.nnz},
        "vocab": None,
        "complete": False,
        "shards": shards,
    }

    # Vocabulary first (content-addressed, so re-writing on resume is
    # idempotent) — it must exist before the manifest can reference it.
    if vocab_path is not None:
        from repro.core.snapshot import atomic_write_text

        terms = [
            t
            for t in Path(vocab_path).read_text(encoding="utf-8").splitlines()
            if t
        ]
        if len(terms) != header.num_words:
            raise ValueError(
                f"vocab file has {len(terms)} terms but header declares "
                f"{header.num_words}"
            )
        Vocabulary(terms)  # validates uniqueness/shape before any write
        blob = "\n".join(terms) + "\n"
        atomic_write_text(root / VOCAB_NAME, blob)
        manifest["vocab"] = {
            "file": VOCAB_NAME,
            "sha256": hashlib.sha256(blob.encode("utf-8")).hexdigest(),
        }

    leftover: np.ndarray | None = None
    exhausted = False
    last_doc = -1

    def _next_chunk() -> np.ndarray | None:
        nonlocal last_doc
        chunk = next(stream, None)
        if chunk is None:
            return None
        docs = chunk[:, 0]
        if docs[0] < last_doc or np.any(np.diff(docs) < 0):
            raise ValueError(
                "docword file is not sorted by document id; sharded "
                "ingestion requires the UCI doc-major layout"
            )
        last_doc = int(docs[-1])
        return chunk

    for index in range(num_shards):
        doc_lo = index * docs_per_shard
        doc_hi = min(doc_lo + docs_per_shard, header.num_docs)
        parts: list[np.ndarray] = []
        while True:
            if leftover is not None and leftover.shape[0]:
                cut = int(np.searchsorted(leftover[:, 0], doc_hi, side="left"))
                if cut:
                    parts.append(leftover[:cut])
                leftover = leftover[cut:]
                if leftover.shape[0]:
                    break  # first triple of a later shard reached
            if exhausted:
                break
            chunk = _next_chunk()
            if chunk is None:
                exhausted = True
                leftover = None
                break
            leftover = chunk
        if index < start_shard:
            continue  # shard verified on disk; stream past it
        if parts:
            triples = np.concatenate(parts)
        else:
            triples = np.zeros((0, 3), dtype=np.int64)
        local = triples.copy()
        local[:, 0] -= doc_lo
        window = corpus_from_triples(
            local, num_docs=doc_hi - doc_lo, num_words=header.num_words
        )
        faults.crash_if("ingest_crash", shard=index, phase="shard")
        entry = _write_shard(
            root,
            index,
            doc_lo,
            doc_hi,
            header.num_words,
            window.word_ids,
            window.doc_offsets,
        )
        faults.crash_if("ingest_crash", shard=index, phase="manifest")
        shards.append(entry)
        tokens_done += entry["num_tokens"]
        manifest["num_tokens"] = tokens_done
        write_manifest(root, manifest)

    manifest["complete"] = True
    write_manifest(root, manifest)
    # Read back through the verifying loader: the caller gets the exact
    # stamped manifest the store now holds (same shape as the no-op
    # early return for an already-complete store).
    return load_manifest(root)
