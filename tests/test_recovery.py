"""Chaos suite: injected crashes must recover bit-identically.

The tentpole contract of the robustness PR, as executable checks:

- a training worker killed mid-iteration (any phase, any sync mode) is
  respawned and the iteration replayed — final assignments, phi, the
  likelihood trajectory *and the simulated clocks* are bit-identical to
  an uninterrupted run, and no ``/dev/shm`` segment leaks;
- the retry budget is real: a fault armed for every attempt exhausts it
  and surfaces a clear :class:`~repro.parallel.engine.RecoveryFailed`;
- transient master-side merge failures are retried without disturbing
  determinism;
- worker Python *exceptions* (as opposed to process deaths) still
  propagate — recovery must not swallow real bugs;
- the inference pool surfaces an injected attach failure as
  :class:`~repro.parallel.pool.WorkerDied`, leak-free.
"""

from __future__ import annotations

import glob

import numpy as np
import pytest

from repro import faults
from repro.baselines.ldastar import LdaStarTrainer
from repro.core.config import TrainerConfig
from repro.core.trainer import CuLdaTrainer
from repro.corpus.synthetic import SyntheticSpec, generate_synthetic_corpus
from repro.parallel.engine import ProcessEngine, RecoveryFailed
from repro.parallel.pool import WorkerDied
from repro.parallel.shm import pick_context

SPEC = SyntheticSpec(
    name="par", num_docs=50, num_words=90, mean_doc_len=20.0,
    doc_len_sigma=0.5, num_topics=5,
)

pytestmark = pytest.mark.skipif(
    pick_context().get_start_method() != "fork",
    reason="crash injection relies on fork worker start-up",
)


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_corpus(SPEC, seed=11)


@pytest.fixture(autouse=True)
def disarm():
    faults.reset()
    yield
    faults.reset()


def shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


def run_culda(corpus, spec=None, iterations=3, **cfg_kwargs):
    """One culda run; returns (z, phi, clocks, lls, recovery events)."""
    if spec is not None:
        faults.install(spec)
    try:
        cfg = TrainerConfig(
            num_topics=12, seed=5, recovery_backoff=0.0, **cfg_kwargs
        )
        t = CuLdaTrainer(corpus, cfg)
        try:
            t.train(iterations, compute_likelihood_every=1)
            z = np.concatenate(
                [cs.topics.astype(np.int64) for cs in t.state.chunks]
            )
            return (
                z,
                t.state.phi.copy(),
                [r.sim_seconds for r in t.history],
                [r.log_likelihood_per_token for r in t.history],
                list(t.recovery_events),
            )
        finally:
            t.close()
    finally:
        faults.reset()


def run_ldastar(corpus, spec=None, iterations=3, **kwargs):
    if spec is not None:
        faults.install(spec)
    try:
        t = LdaStarTrainer(
            corpus, num_topics=12, num_workers=2, seed=5,
            recovery_backoff=0.0, **kwargs,
        )
        try:
            t.train(iterations, compute_likelihood_every=1)
            z = np.concatenate(
                [cs.topics.astype(np.int64) for cs in t.state.chunks]
            )
            return (
                z,
                t.state.phi.copy(),
                [r.sim_seconds for r in t.history],
                [r.log_likelihood_per_token for r in t.history],
                list(t.recovery_events),
            )
        finally:
            t.close()
    finally:
        faults.reset()


class TestCuldaCrashRecovery:
    """Worker deaths at every phase of every sync mode replay exactly."""

    @pytest.mark.parametrize("sync_mode", ["barrier", "prereduce", "overlap"])
    @pytest.mark.parametrize("phase", ["sample", "merge"])
    def test_crash_recovers_bit_identically(self, corpus, sync_mode, phase):
        before = shm_segments()
        golden = run_culda(
            corpus, num_gpus=2, execution="process", num_workers=2,
            sync_mode=sync_mode,
        )
        assert golden[4] == []  # undisturbed run records no recoveries
        hurt = run_culda(
            corpus,
            spec=f"worker_crash@phase={phase},iteration=1,worker=0",
            num_gpus=2, execution="process", num_workers=2,
            sync_mode=sync_mode,
        )
        assert len(hurt[4]) == 1  # exactly one recovery incident
        assert hurt[4][0]["iteration"] == 1
        assert np.array_equal(golden[0], hurt[0])  # assignments
        assert np.array_equal(golden[1], hurt[1])  # phi
        assert golden[2] == hurt[2]  # simulated clocks
        assert golden[3] == hurt[3]  # likelihood trajectory
        assert shm_segments() <= before  # no leaked segments

    def test_overlap_broadcast_crash(self, corpus):
        """Death during the pipelined model refresh: the replay must
        re-broadcast the intact master model into fresh replicas."""
        golden = run_culda(
            corpus, num_gpus=2, execution="process", num_workers=2,
            sync_mode="overlap",
        )
        hurt = run_culda(
            corpus,
            spec="worker_crash@phase=broadcast,iteration=1,worker=1",
            num_gpus=2, execution="process", num_workers=2,
            sync_mode="overlap",
        )
        assert len(hurt[4]) == 1
        assert np.array_equal(golden[0], hurt[0])
        assert np.array_equal(golden[1], hurt[1])
        assert golden[2] == hurt[2]
        assert golden[3] == hurt[3]

    def test_matches_serial_after_recovery(self, corpus):
        serial = run_culda(corpus, num_gpus=2)
        hurt = run_culda(
            corpus,
            spec="worker_crash@phase=sample,iteration=0,worker=1",
            num_gpus=2, execution="process", num_workers=2,
            sync_mode="prereduce",
        )
        assert np.array_equal(serial[0], hurt[0])
        assert serial[2] == hurt[2]
        assert serial[3] == hurt[3]

    def test_back_to_back_crashes_within_budget(self, corpus):
        """attempt 0 and attempt 1 both die; the default budget of two
        respawns still lands the run, bit-identically."""
        golden = run_culda(
            corpus, num_gpus=2, execution="process", num_workers=2,
        )
        hurt = run_culda(
            corpus,
            spec=("worker_crash@phase=sample,iteration=1,worker=0;"
                  "worker_crash@phase=sample,iteration=1,worker=0,attempt=1"),
            num_gpus=2, execution="process", num_workers=2,
        )
        assert len(hurt[4]) == 2
        assert np.array_equal(golden[0], hurt[0])
        assert golden[2] == hurt[2]

    def test_budget_exhaustion_raises_recovery_failed(self, corpus):
        before = shm_segments()
        faults.install("worker_crash@phase=sample,worker=0,"
                       "attempt=any,times=any")
        cfg = TrainerConfig(
            num_topics=12, seed=5, execution="process", num_workers=2,
            recovery_retries=1, recovery_backoff=0.0,
        )
        t = CuLdaTrainer(corpus, cfg)
        try:
            with pytest.raises(RecoveryFailed) as exc:
                t.train(2, compute_likelihood_every=0)
            assert exc.value.attempts == 1
            assert len(t.recovery_events) == 1
        finally:
            t.close()
            faults.reset()
        assert shm_segments() <= before

    def test_recovery_disabled_reraises_worker_died(self, corpus):
        faults.install("worker_crash@phase=sample,worker=0")
        cfg = TrainerConfig(
            num_topics=12, seed=5, execution="process", num_workers=2,
            recovery_retries=0,
        )
        t = CuLdaTrainer(corpus, cfg)
        try:
            with pytest.raises(WorkerDied):
                t.train(1, compute_likelihood_every=0)
        finally:
            t.close()
            faults.reset()

    def test_worker_exception_is_not_recovered(self, corpus, monkeypatch):
        """A Python bug in the worker must propagate, not be replayed:
        recovery is for process deaths only."""
        import repro.core.scheduler as scheduler_mod

        def boom(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(scheduler_mod, "sample_chunk", boom)
        cfg = TrainerConfig(
            num_topics=12, seed=5, execution="process", num_workers=2,
        )
        t = CuLdaTrainer(corpus, cfg)
        try:
            with pytest.raises(RuntimeError, match="injected failure"):
                t.train(1, compute_likelihood_every=0)
            assert t.recovery_events == []
        finally:
            t.close()


class TestRecoverySnapshot:
    """A refresh dispatch's replay rewrites every replica from
    ``model/*`` before sampling, so its snapshot skips them."""

    @pytest.mark.parametrize(
        "sync_mode, expected",
        [
            ("barrier", [(False, 2)] * 3),
            ("prereduce", [(False, 2)] * 3),
            # the overlap pipeline refreshes from the second dispatch on
            ("overlap", [(False, 2), (True, 0), (True, 0)]),
        ],
    )
    def test_replica_copies_only_without_refresh(
        self, corpus, monkeypatch, sync_mode, expected
    ):
        seen = []
        capture = ProcessEngine._capture_snapshot

        def spy(engine, refresh_replicas):
            capture(engine, refresh_replicas)
            seen.append(
                (refresh_replicas, len(engine._snapshot["replicas"]))
            )

        monkeypatch.setattr(ProcessEngine, "_capture_snapshot", spy)
        run_culda(
            corpus, num_gpus=2, execution="process", num_workers=2,
            sync_mode=sync_mode,
        )
        assert seen == expected


class TestMergeFaults:
    """Transient master-side sync failures are retried deterministically."""

    @pytest.mark.parametrize("sync_mode,point_ctx", [
        ("barrier", "sync=barrier"),
        ("prereduce", "sync=prereduce"),
    ])
    def test_merge_fail_retried_bit_identically(
        self, corpus, sync_mode, point_ctx
    ):
        golden = run_culda(
            corpus, num_gpus=2, execution="process", num_workers=2,
            sync_mode=sync_mode,
        )
        hurt = run_culda(
            corpus, spec=f"merge_fail@{point_ctx}",
            num_gpus=2, execution="process", num_workers=2,
            sync_mode=sync_mode,
        )
        assert len(hurt[4]) == 1
        assert hurt[4][0]["error"].startswith("injected fault")
        assert np.array_equal(golden[0], hurt[0])
        assert np.array_equal(golden[1], hurt[1])
        assert golden[2] == hurt[2]
        assert golden[3] == hurt[3]


class TestLdaStarCrashRecovery:
    @pytest.mark.parametrize("sync_mode", ["barrier", "overlap"])
    def test_crash_recovers_bit_identically(self, corpus, sync_mode):
        before = shm_segments()
        golden = run_ldastar(
            corpus, execution="process", num_processes=2,
            sync_mode=sync_mode,
        )
        hurt = run_ldastar(
            corpus,
            spec="worker_crash@phase=sample,iteration=1,worker=0",
            execution="process", num_processes=2, sync_mode=sync_mode,
        )
        assert len(hurt[4]) == 1
        assert np.array_equal(golden[0], hurt[0])
        assert np.array_equal(golden[1], hurt[1])
        assert golden[2] == hurt[2]
        assert golden[3] == hurt[3]
        assert shm_segments() <= before


class TestInferencePoolFaults:
    def test_shm_attach_death_surfaces_and_cleans_up(self):
        from repro.model.parallel_inference import InferenceWorkerPool

        before = shm_segments()
        rng = np.random.default_rng(0)
        p_star_t = rng.random((6, 40))
        faults.install("shm_attach@worker=0")
        pool = InferenceWorkerPool(
            p_star_t, alpha=0.1, num_topics=6, num_words=40,
            num_workers=2, batch_docs=8,
        )
        try:
            pool.start()
            docs = [np.array([0, 1, 2], dtype=np.int64)]
            specs = [(123, d) for d in range(len(docs))]
            out = np.empty((len(docs), 6), dtype=np.float64)
            with pytest.raises(WorkerDied):
                pool.transform_batches(
                    [(np.arange(len(docs)), docs, specs)], 4, 2, out
                )
        finally:
            pool.close()
            faults.reset()
        assert shm_segments() <= before
