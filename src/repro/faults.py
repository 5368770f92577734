"""Deterministic fault injection: named failure points, armed on demand.

Robustness claims are only as good as the failures they were tested
against.  This module gives the repo a single, deterministic way to
*cause* the failures the recovery machinery handles: worker crashes at a
chosen iteration/chunk/pipeline phase, merge failures, shared-memory
attach failures, serving handler errors and slow requests.  Every
injection point in the codebase asks this registry "should I fail
here?"; in production nothing is armed and the checks are a dict lookup
away from free.

Arming
------
Faults are armed from a **spec string**, either programmatically
(:func:`install` / :func:`arm`) or via the ``REPRO_FAULTS`` environment
variable (read lazily on first check, so CLI runs need no code changes)::

    REPRO_FAULTS="worker_crash@phase=sample,iteration=1,worker=0"

Grammar: ``;``-separated clauses, each ``point`` or
``point@key=value,key=value``.  Match keys compare against the context
the injection point supplies (``iteration``, ``chunk``, ``worker``,
``phase``, ``op``...); a key the spec names but the context lacks never
matches.  Values: integers, bare strings, or ``any`` (wildcard).  Three
keys are control knobs rather than matchers:

- ``times=N`` — fire at most N times per process (default 1);
  ``times=any`` fires forever;
- ``delay_ms=X`` — for delay points (:func:`delay_if` /
  :func:`sleep_if`), the injected latency;
- ``every=N`` — fire on every Nth otherwise-matching check (the 1st,
  N+1st, ...), so a probabilistic failure rate becomes a deterministic
  one: ``serve_slow@op=infer,every=10,times=any`` slows exactly 10% of
  dispatches.

Determinism across recovery
---------------------------
Worker processes re-install the spec they were spawned with (it travels
in the worker plan), so fired counters reset per process — and a fault
that crashed attempt 0 would crash every respawn too.  To prevent that
crash-loop, a clause that does not name ``attempt`` implicitly matches
**attempt 0 only**; arming ``attempt=any`` makes the fault survive
respawns (how the retry-budget-exhausted path is tested), and
``attempt=1`` targets exactly the first replay.

Points currently wired (see docs/ROBUSTNESS.md):

==================  ====================================================
``worker_crash``    training worker ``os._exit`` at ``phase=sample``
                    (before a chunk pass), ``merge`` (after sampling,
                    before replying) or ``broadcast`` (at every
                    kick-off, before the replica refreshes)
``shm_attach``      worker dies before attaching the shared arena
                    (training and inference pools)
``merge_fail``      transient exception at the top of the master's phi
                    reconciliation (:mod:`repro.core.sync`)
``serve_error``     serving dispatch raises -> typed
                    ``inference_failed`` response
``serve_slow``      serving dispatch sleeps ``delay_ms`` first
``serve_hang``      an inference worker **wedges in its fold-in loop**
                    for ``delay_ms`` (default one hour — effectively
                    forever) on pool start ``attempt`` (0 unless
                    named): only the dispatch watchdog, which kills and
                    restarts the pool, answers the affected clients
``artifact_corrupt``  flips one phi count after an artifact read so the
                    digest verification sees a genuinely corrupted
                    payload (matches ``op=load`` and ``path=<name>``)
``shard_read_error``  corpus store shard read raises before the bytes
                    are touched (matches ``shard=<name>``, ``op=load``)
``shard_corrupt``   flips one token id after a shard read so the shard
                    digest verification sees genuine bit rot (matches
                    ``shard=<name>``, ``op=load``)
``ingest_crash``    ``os._exit`` mid-ingestion, either before a shard
                    is written (``phase=shard``) or between the shard
                    write and its manifest update (``phase=manifest``);
                    matches ``shard=<index>``
==================  ====================================================
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

__all__ = [
    "CRASH_EXIT_CODE",
    "DEFAULT_HANG_SECONDS",
    "ENV_VAR",
    "POINTS",
    "Fault",
    "FaultInjected",
    "active_spec",
    "arm",
    "check",
    "crash_if",
    "delay_if",
    "install",
    "parse_spec",
    "raise_if",
    "reset",
    "sleep_if",
]

#: Exit code of an injected process crash — distinctive in worker logs.
CRASH_EXIT_CODE = 173

#: Canonical registry of injection points wired in the codebase.
#:
#: This is the single source of truth that the RPR4xx static checks keep in
#: sync with both the call sites (``faults.crash_if("worker_crash", ...)``)
#: and the operator docs table in docs/ROBUSTNESS.md — a point name that is
#: missing here is almost certainly a typo that would silently never fire.
#: Arming an unknown point is still allowed at runtime (tests arm synthetic
#: points freely); the registry constrains the *shipped* call sites.
POINTS = {
    "worker_crash": "training worker os._exit at phase=sample/merge/broadcast",
    "shm_attach": "worker dies before attaching the shared arena",
    "merge_fail": "transient exception in the master's phi reconciliation",
    "serve_error": "serving dispatch raises -> typed inference_failed response",
    "serve_slow": "serving dispatch sleeps delay_ms before answering",
    "serve_hang": "inference worker wedges in its fold-in loop for delay_ms",
    "artifact_corrupt": "flips one phi count after an artifact read (op=load)",
    "shard_read_error": "corpus store shard read raises before touching bytes",
    "shard_corrupt": "flips one token id after a shard read (digest catches it)",
    "ingest_crash": "os._exit mid-ingestion at phase=shard or phase=manifest",
}

ENV_VAR = "REPRO_FAULTS"

#: Wildcard match value.
ANY = "any"

#: Keys that configure the fault rather than match the context.
_CONTROL_KEYS = ("times", "delay_ms", "every")

#: ``sleep_if`` with no ``delay_ms``: one hour — "forever" for any test
#: with a timeout, without actually deadlocking a leaked thread for good.
DEFAULT_HANG_SECONDS = 3600.0


class FaultInjected(RuntimeError):
    """An armed fault fired at a raise-style injection point."""

    def __init__(self, point: str, context: dict):
        ctx = ", ".join(f"{k}={v}" for k, v in sorted(context.items()))
        super().__init__(f"injected fault at {point!r} ({ctx})")
        self.point = point
        self.context = dict(context)


@dataclass
class Fault:
    """One armed fault: an injection point plus its match conditions."""

    point: str
    match: dict[str, object] = field(default_factory=dict)
    #: max firings in this process; ``None`` = unlimited.
    times: int | None = 1
    #: injected latency for delay points, in milliseconds.
    delay_ms: float = 0.0
    #: fire on every Nth otherwise-matching check (1 = every match).
    every: int = 1
    fired: int = 0
    #: otherwise-matching checks seen (drives the ``every`` cadence).
    seen: int = 0

    def matches(self, point: str, context: dict) -> bool:
        if point != self.point:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        # Unnamed attempt matches attempt 0 only: a respawned worker
        # re-arms the same spec, and without this default the same crash
        # would fire on every replay (an unrecoverable loop by spec
        # accident, not by intent).
        want_attempt = self.match.get("attempt", 0)
        if want_attempt != ANY:
            if int(context.get("attempt", 0)) != int(want_attempt):  # type: ignore[arg-type]
                return False
        for key, want in self.match.items():
            if key == "attempt" or want == ANY:
                continue
            if key not in context:
                return False
            if str(context[key]) != str(want):
                return False
        # Conditions satisfied: advance the every-N cadence and fire on
        # the 1st, every+1st, ... such check.
        self.seen += 1
        return (self.seen - 1) % self.every == 0


def _parse_value(text: str) -> object:
    text = text.strip()
    if text.lower() == ANY:
        return ANY
    try:
        return int(text)
    except ValueError:
        return text


def parse_spec(spec: str) -> list[Fault]:
    """Parse a fault spec string into :class:`Fault` instances.

    Raises ``ValueError`` on malformed clauses — a typo'd spec must not
    silently arm nothing.
    """
    faults: list[Fault] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        point, _, raw = clause.partition("@")
        point = point.strip()
        if not point:
            raise ValueError(f"fault clause has no point name: {clause!r}")
        match: dict[str, object] = {}
        times: int | None = 1
        delay_ms = 0.0
        every = 1
        if raw.strip():
            for pair in raw.split(","):
                key, sep, value = pair.partition("=")
                key = key.strip()
                if not sep or not key:
                    raise ValueError(
                        f"fault condition must be key=value, got {pair!r} "
                        f"in {clause!r}"
                    )
                parsed = _parse_value(value)
                if key == "times":
                    times = None if parsed == ANY else int(parsed)  # type: ignore[arg-type]
                elif key == "delay_ms":
                    delay_ms = float(value)
                elif key == "every":
                    every = int(parsed)  # type: ignore[arg-type]
                    if every < 1:
                        raise ValueError(
                            f"every must be >= 1, got {parsed!r} in "
                            f"{clause!r}"
                        )
                else:
                    match[key] = parsed
        faults.append(
            Fault(
                point=point, match=match, times=times, delay_ms=delay_ms,
                every=every,
            )
        )
    return faults


# -- process-wide registry ---------------------------------------------------

_faults: list[Fault] = []
_spec: str | None = None
_installed = False


def install(spec: str | None) -> None:
    """Replace the armed faults with ``spec`` (``None``/empty disarms).

    Also resets every fired counter — this is what worker processes call
    at start-up with the spec from their plan, so each (re)spawn starts
    from a deterministic state regardless of inherited memory.
    """
    global _faults, _spec, _installed
    _spec = spec or None
    _faults = parse_spec(spec) if spec else []
    _installed = True


def reset() -> None:
    """Forget everything; the next check re-reads ``REPRO_FAULTS``."""
    global _faults, _spec, _installed
    _faults = []
    _spec = None
    _installed = False


def _ensure_installed() -> None:
    if not _installed:
        install(os.environ.get(ENV_VAR))


def active_spec() -> str | None:
    """The spec currently armed (threaded into worker plans on spawn)."""
    _ensure_installed()
    return _spec


def arm(spec: str) -> None:
    """Append clauses to whatever is already armed."""
    current = active_spec()
    install(f"{current};{spec}" if current else spec)


def check(point: str, **context) -> Fault | None:
    """First armed fault matching ``point``/``context``, marked fired."""
    _ensure_installed()
    if not _faults:  # the production fast path
        return None
    for fault in _faults:
        if fault.matches(point, context):
            fault.fired += 1
            return fault
    return None


def crash_if(point: str, **context) -> None:
    """Kill this process (``os._exit``) if a matching fault is armed.

    ``os._exit`` skips every handler and ``finally`` on purpose: the
    point simulates a hard death (OOM kill, segfault), which is exactly
    what the recovery machinery must survive.
    """
    if check(point, **context) is not None:
        os._exit(CRASH_EXIT_CODE)


def raise_if(point: str, **context) -> None:
    """Raise :class:`FaultInjected` if a matching fault is armed."""
    if check(point, **context) is not None:
        raise FaultInjected(point, context)


def delay_if(point: str, **context) -> float:
    """Injected latency in **seconds** for a delay point (0.0 = none)."""
    fault = check(point, **context)
    return fault.delay_ms / 1000.0 if fault is not None else 0.0


def sleep_if(point: str, **context) -> None:
    """**Blocking** sleep if a matching fault is armed (a wedge).

    Unlike :func:`delay_if` (whose caller awaits cooperatively), this
    blocks the calling process outright — in an inference worker it
    simulates a wedged fold-in that never replies, which is exactly what
    the serving dispatch watchdog must survive.  With no ``delay_ms``
    the wedge lasts :data:`DEFAULT_HANG_SECONDS`.
    """
    fault = check(point, **context)
    if fault is not None:
        seconds = (
            fault.delay_ms / 1000.0 if fault.delay_ms else DEFAULT_HANG_SECONDS
        )
        time.sleep(seconds)
