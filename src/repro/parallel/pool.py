"""Shared lifecycle plumbing for arena-backed OS worker pools.

Two pools live in the repo — the training
:class:`~repro.parallel.engine.ProcessEngine` and the serving
:class:`~repro.model.parallel_inference.InferenceWorkerPool` — and both
need the same machinery around their protocols: validate and apply CPU
affinity, spawn one process per picklable plan with rollback on
failure, receive replies with liveness checks so a dead worker surfaces
as an error instead of a hang, and an idempotent shutdown (stop, join,
terminate stragglers, destroy the shared segment) that doubles as the
finalizer backstop for abandoned owners.  This module is that
machinery, once.
"""

from __future__ import annotations

import os

from repro.parallel.shm import ShmArena, pick_context

__all__ = [
    "WorkerDied",
    "normalize_affinity",
    "set_worker_affinity",
    "spawn_workers",
    "recv_reply",
    "shutdown_pool",
    "stop_workers",
    "usable_cpus",
]

#: Seconds between liveness checks while waiting on a worker reply.
POLL_SECONDS = 1.0


class WorkerDied(RuntimeError):
    """A worker process exited without replying."""

    def __init__(self, role: str, worker: int, exitcode):
        super().__init__(
            f"{role} worker {worker} died (exit code {exitcode}); "
            f"its traceback, if any, went to stderr.  A 'spawn' start "
            f"method requires an importable __main__ (not stdin/REPL)."
        )


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the host's.

    The default size of both pools, so neither oversubscribes a process
    restricted to fewer CPUs than the host has.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def normalize_affinity(cpus) -> tuple[int, ...] | None:
    """Canonical affinity spec: ``None``/empty -> ``None``, else a tuple
    of validated non-negative CPU ids.  The single definition every
    affinity-accepting surface (config, engines, sessions) goes through.
    """
    if cpus is None or (hasattr(cpus, "__len__") and len(cpus) == 0):
        return None
    out = tuple(int(c) for c in cpus)
    if any(c < 0 for c in out):
        raise ValueError(
            f"affinity CPU ids must be non-negative, got {cpus!r}"
        )
    return out


def set_worker_affinity(worker_index: int, cpus) -> int | None:
    """Pin the calling process to one CPU of ``cpus`` (round-robin).

    Returns the CPU id actually applied, or ``None`` when pinning is
    unavailable (non-Linux) or refused by the kernel — affinity is a
    performance knob, never a correctness requirement.
    """
    if not cpus or not hasattr(os, "sched_setaffinity"):
        return None
    cpu = int(cpus[worker_index % len(cpus)])
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # pragma: no cover - kernel refused (bad cpu id)
        return None
    return cpu


def spawn_workers(arena: ShmArena, plans, target, name_prefix: str):
    """Start one daemon process per plan; returns ``(procs, conns)``.

    On any start-up failure the already-started workers are terminated
    and the arena is closed and unlinked before re-raising, so a partial
    pool can never leak a shared segment.
    """
    ctx = pick_context()
    procs, conns = [], []
    try:
        for w, plan in enumerate(plans):
            parent, child = ctx.Pipe()
            p = ctx.Process(
                target=target, args=(child, plan),
                name=f"{name_prefix}-{w}", daemon=True,
            )
            p.start()
            child.close()
            procs.append(p)
            conns.append(parent)
    except Exception:
        for p in procs:
            p.terminate()
        arena.close()
        arena.unlink()
        raise
    return procs, conns


def recv_reply(role: str, w: int, proc, conn) -> tuple:
    """One reply from worker ``w``, polling its liveness while waiting.

    Raises :class:`WorkerDied` if the process exits without answering,
    and re-raises a worker-shipped ``("error", traceback)`` reply as a
    ``RuntimeError`` carrying the remote traceback text.
    """
    try:
        while not conn.poll(POLL_SECONDS):
            if not proc.is_alive():
                raise WorkerDied(role, w, proc.exitcode)
        msg = conn.recv()
    except (EOFError, ConnectionError) as exc:
        raise WorkerDied(role, w, proc.exitcode) from exc
    if msg[0] == "error":
        raise RuntimeError(f"{role} worker {w} failed:\n{msg[1]}")
    return msg


def stop_workers(procs: list, conns: list) -> None:
    """Terminate pool processes and close their pipes — arena untouched.

    The crash-recovery path: after a worker death the engine tears the
    *processes* down with this, restores the shared state in place, and
    respawns against the same arena.  Unlike :func:`shutdown_pool` no
    ``stop`` message is sent (surviving workers may be mid-iteration and
    would answer ``done`` first, desynchronising a future pipe), and the
    segment stays mapped and linked for the replacement pool.
    """
    for p in procs:
        if p.is_alive():
            p.terminate()
    for p in procs:
        p.join(timeout=2.0)
        if p.is_alive():  # pragma: no cover - hung worker
            p.kill()
            p.join(timeout=1.0)
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass


def shutdown_pool(arena: ShmArena, procs: list, conns: list) -> None:
    """Stop workers and destroy the shared segment (idempotent)."""
    for conn in conns:
        try:
            conn.send(("stop",))
        except Exception:
            pass
    for p in procs:
        p.join(timeout=2.0)
        if p.is_alive():  # pragma: no cover - hung worker
            p.terminate()
            p.join(timeout=1.0)
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass
    arena.close()
    arena.unlink()
