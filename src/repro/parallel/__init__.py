"""Parallel multi-device execution engine (true shared-memory parallelism).

The paper's headline result is multi-GPU *scaling*; this package makes
the reproduction's simulated-device loop actually scale on real
hardware.  ``TrainerConfig(execution="process", num_workers=N)`` (CLI:
``--execution process --num-workers N``) runs each simulated device's
per-iteration work — sampling, phi/theta updates — on persistent OS
worker processes over ``multiprocessing.shared_memory``-backed token
arrays, topic state and count matrices.  Each worker holds one private
phi replica, copies the published model into it before each device it
owns, and pre-reduces its devices' phi updates into one shared int64
accumulator; at the iteration barrier the master merges the
accumulators (O(W*K*V)), publishes the model once and charges the
Figure-4 tree reduce/broadcast on the simulated clocks.

Layers:

- :mod:`repro.parallel.shm` — the shared-memory array arena;
- :mod:`repro.parallel.pool` — pool lifecycle and CPU affinity, shared
  with the serving pool;
- :mod:`repro.parallel.worker` — worker process: the core chunk pass
  (sample -> update-phi -> rebuild-theta) against its private replica;
- :mod:`repro.parallel.engine` — master-side orchestration, lifecycle
  and the iteration barrier.

``TrainerConfig(sync_mode=...)`` controls whether that communication is
hidden: ``"barrier"`` (default) starts the next iteration after the
master's accounting + likelihood; ``"overlap"`` starts it right after
the merge, pipelining that work against the next iteration's sampling —
the paper's Section 6.2 "phi first" trick at the process level.  Both
are bit-identical to serial execution.

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
    "WorkerPlan": "repro.parallel.worker",
    "set_worker_affinity": "repro.parallel.pool",
    "worker_main": "repro.parallel.worker",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
