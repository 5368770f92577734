"""Streaming serving tier: async inference with coalescing and hot swap.

Layers (each importable on its own):

- :mod:`repro.serving.protocol` — length-prefixed JSON frames (the wire);
- :mod:`repro.serving.coalescer` — admission-controlled queue that folds
  pending requests into one dispatch;
- :mod:`repro.serving.stats` — per-request latency accounting (queue
  wait vs service, windowed p50/p99);
- :mod:`repro.serving.breaker` — the circuit breaker that turns
  consecutive dispatch failures into fast typed refusals;
- :mod:`repro.serving.server` — the asyncio server: concurrent clients,
  bit-identical coalesced inference, request deadlines with watchdogged
  dispatches and pool self-healing, digest-verified hot model swap with
  last-good rollback and zero dropped requests;
- :mod:`repro.serving.client` — the sequential protocol client.

Entry points: ``repro serve`` / ``repro query`` on the CLI,
:class:`ServingServer` / :class:`ServingClient` in-process.
"""

from repro.serving.breaker import CircuitBreaker
from repro.serving.client import (
    CircuitOpen,
    DeadlineExceeded,
    InferReply,
    ServerBusy,
    ServingClient,
    ServingError,
)
from repro.serving.coalescer import (
    DEFAULT_MAX_PENDING,
    BatchCoalescer,
    PendingRequest,
)
from repro.serving.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameError,
    encode_frame,
    decode_payload,
    read_frame,
    write_frame,
)
from repro.serving.server import (
    DEFAULT_SERVE_BURN_IN,
    DEFAULT_SERVE_SWEEPS,
    ModelGeneration,
    ServingServer,
)
from repro.serving.stats import LatencyStats, quantiles

__all__ = [
    "ServingServer",
    "ModelGeneration",
    "ServingClient",
    "InferReply",
    "ServingError",
    "ServerBusy",
    "CircuitOpen",
    "DeadlineExceeded",
    "CircuitBreaker",
    "BatchCoalescer",
    "PendingRequest",
    "LatencyStats",
    "quantiles",
    "FrameError",
    "encode_frame",
    "decode_payload",
    "read_frame",
    "write_frame",
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "DEFAULT_MAX_PENDING",
    "DEFAULT_SERVE_SWEEPS",
    "DEFAULT_SERVE_BURN_IN",
]
