"""Parallel multi-device execution engine (true shared-memory parallelism).

The paper's headline result is multi-GPU *scaling*; this package makes
the reproduction's simulated-device loop actually scale on real
hardware.  ``TrainerConfig(execution="process", num_workers=N)`` (CLI:
``--execution process --num-workers N``) runs each simulated device's
per-iteration work — sampling, phi/theta updates — on persistent OS
worker processes over ``multiprocessing.shared_memory``-backed count
matrices and token arrays, with the existing Figure-4 tree
reduce/broadcast applied to the replica deltas at iteration barriers.

Layers:

- :mod:`repro.parallel.shm` — the shared-memory array arena;
- :mod:`repro.parallel.pool` — pool lifecycle and CPU affinity, shared
  with the serving pool;
- :mod:`repro.parallel.worker` — worker process: the functional chunk
  pass (sample -> update-phi -> rebuild-theta) against shared replicas;
- :mod:`repro.parallel.engine` — master-side orchestration, lifecycle
  and the iteration barrier.

``TrainerConfig(sync_mode=...)`` controls how much of the barrier's
communication is hidden: ``"prereduce"`` accumulates per-OS-worker phi
deltas during sampling (master merge O(G*K*V) -> O(W*K*V));
``"overlap"`` additionally pipelines the merge/broadcast and the
master's accounting + likelihood against the next iteration's sampling
— the paper's Section 6.2 "phi first" trick at the process level.
Both are bit-identical to ``"barrier"`` (and to serial execution).

Determinism: RNG streams are keyed by (seed, iteration, chunk), and
chunks within a device run in serial-schedule order, so process
execution is **bit-identical** to serial execution for the same config —
asserted against the serial golden captures by
``tests/test_parallel_engine.py``.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first access: the serving
#: pool needs :mod:`~repro.parallel.shm` and :mod:`~repro.parallel.pool`,
#: not the training engine.
_EXPORTS = {
    "ProcessEngine": "repro.parallel.engine",
    "resolve_num_workers": "repro.parallel.engine",
    "ShmArena": "repro.parallel.shm",
    "pick_context": "repro.parallel.shm",
    "ChunkResult": "repro.parallel.worker",
    "WorkerPlan": "repro.parallel.worker",
    "set_worker_affinity": "repro.parallel.pool",
    "worker_main": "repro.parallel.worker",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
