"""Wire protocol of the serving tier: length-prefixed JSON frames.

One frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON encoding a single object.  JSON keeps the protocol
dependency-free and debuggable (``nc`` + a hex header reaches a live
server); the length prefix makes framing explicit, so a reader never
scans for delimiters and a connection can carry any number of
request/response pairs.  Float64 round-trips exactly through Python's
JSON (``repr`` shortest-round-trip floats), so theta blocks served over
this protocol are **bit-identical** to in-process inference.

Requests are objects with an ``op`` field (``infer`` / ``swap`` /
``stats`` / ``ping`` / ``shutdown``) and an optional client-chosen
``id`` echoed in the response; responses carry a ``type`` field
(``result`` / ``busy`` / ``swapped`` / ``stats`` / ``pong`` / ``bye`` /
``error``).  See docs/API.md "Serving" for the full message reference.
"""

from __future__ import annotations

import asyncio
import json
import struct

import numpy as np

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "FrameError",
    "encode_frame",
    "decode_payload",
    "read_frame",
    "write_frame",
]

#: Version tag servers report in ``ping``/``stats`` responses.
PROTOCOL_VERSION = 1

#: Hard per-frame ceiling: large enough for any realistic coalesced
#: request or theta block, small enough that a corrupt length prefix
#: cannot make a reader buffer gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


class FrameError(ValueError):
    """A malformed, truncated, or oversized frame."""


def _dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"), allow_nan=False)


def _is_rows(value) -> bool:
    return (
        isinstance(value, np.ndarray) and value.ndim == 2
        and value.dtype == np.float64
    )


def _render_rows(rows: np.ndarray) -> str:
    """``_dumps(rows.tolist())`` of a 2-D float64 array, with each distinct
    value's ``repr`` formed once.

    A theta block repeats few values (its rows are count averages), so
    this costs a fraction of a ``repr`` per element.  Values are distinct
    by their bits, so ``0.0`` and ``-0.0`` keep their own text; a
    non-finite value raises ``ValueError`` as ``allow_nan=False`` does.
    """
    if not np.isfinite(rows).all():
        raise ValueError("Out of range float values are not JSON compliant")
    k = rows.shape[1]
    if not k:
        return _dumps(rows.tolist())
    bits, inverse = np.unique(rows.view(np.uint64), return_inverse=True)
    text = [repr(v) for v in bits.view(np.float64).tolist()]
    items = list(map(text.__getitem__, inverse.ravel().tolist()))
    return "[" + ",".join(
        "[" + ",".join(items[lo: lo + k]) + "]"
        for lo in range(0, len(items), k)
    ) + "]"


def encode_frame(message: dict) -> bytes:
    """Serialize one message to its on-wire bytes (header + JSON).

    A 2-D float64 array value (a reply's theta block) is written exactly
    as ``json.dumps`` writes its ``tolist()``, only faster
    (:func:`_render_rows`).  Keys are strings, as in every protocol
    message.
    """
    if any(_is_rows(v) for v in message.values()):
        payload = "{" + ",".join(
            _dumps(key) + ":" + (_render_rows(v) if _is_rows(v) else _dumps(v))
            for key, v in message.items()
        ) + "}"
    else:
        payload = _dumps(message)
    payload = payload.encode()
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict:
    """Parse a frame payload; every protocol message is a JSON object."""
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FrameError("frame payload must be a JSON object")
    return obj


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame; None on clean EOF (peer closed between frames).

    Raises :class:`FrameError` on a truncated frame, an oversized
    length prefix, or a non-object payload.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise FrameError("connection closed mid-header") from exc
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"peer announced a {length}-byte frame "
            f"(limit {MAX_FRAME_BYTES})"
        )
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError("connection closed mid-frame") from exc
    return decode_payload(payload)


async def write_frame(writer: asyncio.StreamWriter, message: dict) -> None:
    """Write one frame and drain (backpressure-aware)."""
    writer.write(encode_frame(message))
    await writer.drain()
