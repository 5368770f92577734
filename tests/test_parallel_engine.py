"""Process execution engine: bit-identity, lifecycle, cleanup.

The golden suite already pins culda process mode against the serial
captures; these tests cover the rest of the engine contract: the shm
arena, LDA* process equivalence, simulated clocks, engine restart,
worker-side workspace stats, shared-segment cleanup, and the
config/registry surface.
"""

from __future__ import annotations


import numpy as np
import pytest

from repro.api import create_trainer
from repro.baselines.ldastar import LdaStarTrainer
from repro.core.config import TrainerConfig
from repro.core.trainer import CuLdaTrainer
from repro.corpus.synthetic import SyntheticSpec, generate_synthetic_corpus
from repro.gpusim import PASCAL_PLATFORM
from repro.parallel import ShmArena, resolve_num_workers

SPEC = SyntheticSpec(
    name="par", num_docs=50, num_words=90, mean_doc_len=20.0,
    doc_len_sigma=0.5, num_topics=5,
)


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_corpus(SPEC, seed=11)


def _run_culda(corpus, execution, iterations=3, **cfg_kwargs):
    cfg = TrainerConfig(
        num_topics=12, seed=5, execution=execution, **cfg_kwargs
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
        )
    finally:
        t.close()


class TestShmArena:
    def test_roundtrip_and_layout(self):
        arena = ShmArena.create(
            {"a": ((4, 3), np.dtype(np.int32)), "b": ((7,), np.dtype(np.float64))}
        )
        try:
            arena.view("a")[...] = np.arange(12).reshape(4, 3)
            arena.view("b")[...] = 0.5
            # attach through the picklable layout, as a worker would
            other = ShmArena.attach(arena.layout)
            assert np.array_equal(
                other.view("a"), np.arange(12).reshape(4, 3)
            )
            other.view("b")[0] = 2.5
            assert arena.view("b")[0] == 2.5
            other.close()
        finally:
            arena.close()
            arena.unlink()

    def test_views_are_aligned_and_disjoint(self):
        arena = ShmArena.create(
            {"x": ((5,), np.dtype(np.int8)), "y": ((5,), np.dtype(np.int64))}
        )
        try:
            arena.view("x")[...] = 1
            arena.view("y")[...] = -1
            assert np.all(arena.view("x") == 1)
            for spec in arena.layout.arrays:
                assert spec.offset % 64 == 0
        finally:
            arena.close()
            arena.unlink()


class TestResolveNumWorkers:
    def test_caps_at_groups(self):
        assert resolve_num_workers(8, 3) == 3

    def test_default_is_cpu_bound(self):
        from repro.parallel.pool import usable_cpus

        assert resolve_num_workers(None, 64) == min(64, usable_cpus())

    def test_default_honours_affinity_mask(self, corpus, monkeypatch):
        """A process allowed one CPU of many runs one worker, not one
        per host CPU."""
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        t = create_trainer("culda", corpus, topics=12, gpus=4, seed=5,
                           platform="Pascal", execution="process")
        try:
            t.partial_fit(1, compute_likelihood=False)
            assert t.describe()["native"]["num_workers"] == 1
        finally:
            t.close()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_num_workers(0, 4)


def _arena_regions(trainer) -> tuple[set[str], set[str]]:
    """Train one iteration; the arena's chunk prefixes and other regions."""
    try:
        trainer.train(1, compute_likelihood_every=0)
        names = [spec.name for spec in trainer._engine._arena.layout.arrays]
    finally:
        trainer.close()
    chunks = {n.split("/")[0] for n in names if n.startswith("chunk")}
    return chunks, {n for n in names if not n.startswith("chunk")}


class TestArenaRegions:
    """One replica contract: the arena holds the chunks, the published
    model and one delta accumulator pair per OS worker — no per-group
    (per-device or per-cluster-worker) region."""

    SHARED = {
        "model/phi", "model/totals",
        "wdelta0/phi", "wdelta0/totals", "wdelta1/phi", "wdelta1/totals",
    }

    def test_culda(self, corpus):
        cfg = TrainerConfig(num_topics=12, num_gpus=4, seed=5,
                            execution="process", num_workers=2)
        chunks, shared = _arena_regions(
            CuLdaTrainer(corpus, cfg, platform=PASCAL_PLATFORM)
        )
        assert chunks == {f"chunk{c}" for c in range(4)}
        assert shared == self.SHARED

    def test_ldastar(self, corpus):
        chunks, shared = _arena_regions(LdaStarTrainer(
            corpus, num_topics=10, num_workers=8, seed=9,
            execution="process", num_processes=2,
        ))
        assert chunks == {f"chunk{c}" for c in range(8)}
        assert shared == self.SHARED


class TestCuLdaProcessExecution:
    @pytest.mark.parametrize("gpus,m", [(2, 1), (2, 2)])
    def test_bit_identical_to_serial(self, corpus, gpus, m):
        serial = _run_culda(corpus, "serial", num_gpus=gpus, chunks_per_gpu=m)
        proc = _run_culda(
            corpus, "process", num_gpus=gpus, chunks_per_gpu=m, num_workers=2
        )
        assert np.array_equal(serial[0], proc[0])  # assignments
        assert np.array_equal(serial[1], proc[1])  # phi
        assert serial[2] == proc[2]  # simulated clocks
        assert serial[3] == proc[3]  # likelihood trajectory

    def test_close_then_resume_continues_same_chain(self, corpus):
        cfg = TrainerConfig(num_topics=12, num_gpus=2, seed=5, execution="process",
                            num_workers=2)
        t = CuLdaTrainer(corpus, cfg)
        t.train(2, compute_likelihood_every=0)
        t.close()  # engine torn down; state copied back to private arrays
        t.train(1, compute_likelihood_every=0)  # fresh engine from current state
        z = np.concatenate([cs.topics.astype(np.int64) for cs in t.state.chunks])
        t.close()

        ref = CuLdaTrainer(
            corpus, TrainerConfig(num_topics=12, num_gpus=2, seed=5)
        )
        ref.train(3, compute_likelihood_every=0)
        z_ref = np.concatenate(
            [cs.topics.astype(np.int64) for cs in ref.state.chunks]
        )
        assert np.array_equal(z, z_ref)

    def test_state_usable_and_valid_after_close(self, corpus):
        cfg = TrainerConfig(num_topics=12, num_gpus=2, seed=5,
                            execution="process", num_workers=2)
        with CuLdaTrainer(corpus, cfg) as t:
            t.train(2, compute_likelihood_every=0)
        t.state.validate()
        assert t.state.phi.sum() == corpus.num_tokens

    def test_workspace_stats_come_from_workers(self, corpus):
        cfg = TrainerConfig(num_topics=12, num_gpus=2, seed=5,
                            execution="process", num_workers=2)
        t = CuLdaTrainer(corpus, cfg)
        try:
            t.train(2, compute_likelihood_every=0)
            stats = t.workspace_stats()
            assert len(stats) == 2  # one arena per device, across workers
            assert all(s["hits"] > 0 for s in stats)
        finally:
            t.close()

    def test_one_arena_per_worker_process(self, corpus):
        def arenas(num_workers):
            cfg = TrainerConfig(num_topics=12, num_gpus=4, seed=5,
                                execution="process", num_workers=num_workers)
            t = CuLdaTrainer(corpus, cfg, platform=PASCAL_PLATFORM)
            try:
                t.train(2, compute_likelihood_every=0)
                return t.workspace_stats()
            finally:
                t.close()

        shared = arenas(2)
        assert [s["groups"] for s in shared] == [[0, 2], [1, 3]]
        largest_single = max(s["nbytes"] for s in arenas(4))
        assert all(s["nbytes"] < 1.3 * largest_single for s in shared)

    def test_describe_reports_execution(self, corpus):
        cfg = TrainerConfig(num_topics=12, seed=5, execution="process",
                            num_workers=1)
        t = CuLdaTrainer(corpus, cfg)
        try:
            assert t.describe()["execution"] == "process"
        finally:
            t.close()

    def test_closed_engine_refuses_restart(self, corpus):
        """A closed engine's construction-time snapshot is stale; the
        trainer must build a fresh engine instead (and does)."""
        cfg = TrainerConfig(num_topics=12, num_gpus=2, seed=5,
                            execution="process", num_workers=2)
        t = CuLdaTrainer(corpus, cfg)
        t.train(1, compute_likelihood_every=0)
        engine = t._engine
        t.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.start()
        t.train(1, compute_likelihood_every=0)  # trainer path: fresh engine
        assert t._engine is not engine
        t.close()

    def test_no_leaked_segments(self, corpus, shm_segments):
        before = shm_segments()
        cfg = TrainerConfig(num_topics=12, num_gpus=2, seed=5,
                            execution="process", num_workers=2)
        t = CuLdaTrainer(corpus, cfg)
        t.train(1, compute_likelihood_every=0)
        t.close()
        assert shm_segments() <= before


class TestSyncModes:
    """Overlapped sync: bit-identical, leak-free, pinned."""

    @pytest.mark.parametrize("sync_mode", ["overlap"])
    @pytest.mark.parametrize("gpus,m", [(2, 1), (2, 2)])
    def test_bit_identical_to_serial(self, corpus, sync_mode, gpus, m):
        serial = _run_culda(
            corpus, "serial", iterations=4, num_gpus=gpus, chunks_per_gpu=m
        )
        proc = _run_culda(
            corpus, "process", iterations=4, num_gpus=gpus, chunks_per_gpu=m,
            num_workers=2, sync_mode=sync_mode,
        )
        assert np.array_equal(serial[0], proc[0])  # assignments
        assert np.array_equal(serial[1], proc[1])  # phi
        assert serial[2] == proc[2]  # simulated clocks
        assert serial[3] == proc[3]  # likelihood trajectory

    def test_overlap_partial_fit_drains_pipeline(self, corpus):
        """One ``partial_fit(1)`` per call gives overlap nothing to
        speculate past: each call drains its pipeline, and the chain
        must still match serial exactly."""
        serial = _run_culda(corpus, "serial", num_gpus=2)

        t = create_trainer(
            "culda", corpus, topics=12, gpus=2, seed=5, execution="process",
            num_workers=2, sync_mode="overlap",
        )
        try:
            for _ in range(3):
                t.partial_fit(1)
            z = np.concatenate(
                [cs.topics.astype(np.int64) for cs in t.state.chunks]
            )
            assert np.array_equal(z, serial[0])
            assert np.array_equal(t.state.phi, serial[1])
            assert [r.sim_seconds for r in t.history] == serial[2]
            assert [r.log_likelihood_per_token for r in t.history] == serial[3]
        finally:
            t.close()

    def test_overlap_validation_iterations_still_identical(self, corpus):
        """validate_every forces pipeline drains mid-run; draws and the
        invariant checks must both survive."""
        cfg = TrainerConfig(
            num_topics=12, num_gpus=2, seed=5, execution="process",
            num_workers=2, sync_mode="overlap",
        )
        t = CuLdaTrainer(corpus, cfg, validate_every=2)
        try:
            t.train(4, compute_likelihood_every=0)
            z = np.concatenate(
                [cs.topics.astype(np.int64) for cs in t.state.chunks]
            )
        finally:
            t.close()
        ref = CuLdaTrainer(
            corpus, TrainerConfig(num_topics=12, num_gpus=2, seed=5)
        )
        ref.train(4, compute_likelihood_every=0)
        z_ref = np.concatenate(
            [cs.topics.astype(np.int64) for cs in ref.state.chunks]
        )
        assert np.array_equal(z, z_ref)

    def test_overlap_close_then_resume(self, corpus):
        serial = _run_culda(corpus, "serial", iterations=4, num_gpus=2)
        cfg = TrainerConfig(num_topics=12, num_gpus=2, seed=5,
                            execution="process", num_workers=2,
                            sync_mode="overlap")
        t = CuLdaTrainer(corpus, cfg)
        t.train(2, compute_likelihood_every=1)
        t.close()
        t.train(2, compute_likelihood_every=1)
        z = np.concatenate(
            [cs.topics.astype(np.int64) for cs in t.state.chunks]
        )
        ll = [r.log_likelihood_per_token for r in t.history]
        t.close()
        assert np.array_equal(z, serial[0])
        assert ll == serial[3]

    def test_worker_exception_mid_iteration_no_leak_and_restartable(
        self, corpus, monkeypatch, shm_segments
    ):
        """A worker crash mid-iteration must surface the traceback, leave
        no shared-memory segment behind, and leave the trainer able to
        build a fresh engine."""
        from repro.parallel.shm import pick_context

        if pick_context().get_start_method() != "fork":
            pytest.skip("fault injection needs fork inheritance")
        before = shm_segments()
        import repro.core.scheduler as scheduler_mod

        def boom(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(scheduler_mod, "sample_chunk", boom)
        cfg = TrainerConfig(num_topics=12, num_gpus=2, seed=5,
                            execution="process", num_workers=2,
                            sync_mode="overlap")
        t = CuLdaTrainer(corpus, cfg)
        with pytest.raises(RuntimeError, match="injected failure"):
            t.train(1, compute_likelihood_every=0)
        t.close()
        assert shm_segments() <= before
        # close() is restartable: the healthy kernel trains a fresh engine
        monkeypatch.undo()
        t.train(3, compute_likelihood_every=0)
        z = np.concatenate(
            [cs.topics.astype(np.int64) for cs in t.state.chunks]
        )
        t.close()
        assert shm_segments() <= before
        assert np.array_equal(z, _run_culda(corpus, "serial", num_gpus=2)[0])

    def test_interrupt_mid_pipeline_leaves_consistent_state(
        self, corpus, monkeypatch
    ):
        """An exception on the master while the next iteration is in
        flight must not tear the copied-back model: close() drains the
        pipeline and completes the pending phi merge."""
        import repro.core.trainer as trainer_mod

        real = trainer_mod.replay_parallel_accounting
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:  # after iteration 1 dispatched iteration 2
                raise RuntimeError("interrupted")
            return real(*args, **kwargs)

        monkeypatch.setattr(
            trainer_mod, "replay_parallel_accounting", flaky
        )
        cfg = TrainerConfig(num_topics=12, num_gpus=2, seed=5,
                            execution="process", num_workers=2,
                            sync_mode="overlap")
        t = CuLdaTrainer(corpus, cfg)
        with pytest.raises(RuntimeError, match="interrupted"):
            t.train(3, compute_likelihood_every=0)
        t.close()
        t.state.validate()  # phi == sum of assignments, non-negative
        assert t.state.phi.sum() == corpus.num_tokens

    @pytest.mark.parametrize("sync_mode", ["barrier", "overlap"])
    def test_close_with_dispatched_uncollected_iteration(
        self, corpus, sync_mode
    ):
        """An interrupt between dispatch and collect leaves an iteration
        in flight in either process mode; close() must drain it and
        merge the workers' pre-reduced deltas."""
        cfg = TrainerConfig(num_topics=12, num_gpus=2, seed=5,
                            execution="process", num_workers=2,
                            sync_mode=sync_mode)
        t = CuLdaTrainer(corpus, cfg)
        t.train(1, compute_likelihood_every=0)
        t._engine.dispatch_iteration(1)  # simulated interrupt: no collect
        t.close()
        t.state.validate()
        assert t.state.phi.sum() == corpus.num_tokens

    def test_ldastar_interrupt_mid_pipeline_consistent(self, corpus):
        t = LdaStarTrainer(
            corpus, num_topics=10, num_workers=3, seed=9,
            execution="process", num_processes=2, sync_mode="overlap",
        )
        calls = []
        real = t._assemble_likelihood

        def flaky(results):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("interrupted")
            return real(results)

        t._assemble_likelihood = flaky
        with pytest.raises(RuntimeError, match="interrupted"):
            t.train(3, compute_likelihood_every=1)
        t.close()
        t.state.validate()
        assert t.state.phi.sum() == corpus.num_tokens

    def test_worker_affinity_applied_and_reported(self, corpus):
        cfg = TrainerConfig(num_topics=12, num_gpus=2, seed=5,
                            execution="process", num_workers=2,
                            worker_affinity=(0,))
        t = CuLdaTrainer(corpus, cfg)
        try:
            assert t.describe()["worker_affinity"] == (0,)
            t.train(1, compute_likelihood_every=0)
            stats = t.workspace_stats()
            assert stats
            import os as _os

            if hasattr(_os, "sched_setaffinity"):
                assert all(s["affinity"] == 0 for s in stats)
            else:  # pragma: no cover - non-Linux
                assert all(s["affinity"] is None for s in stats)
        finally:
            t.close()

    def test_config_rejects_sync_mode_without_process(self):
        with pytest.raises(ValueError, match="sync_mode"):
            TrainerConfig(num_topics=8, sync_mode="overlap")

    def test_config_rejects_unknown_sync_mode(self):
        with pytest.raises(ValueError, match="sync_mode"):
            TrainerConfig(num_topics=8, execution="process",
                          sync_mode="speculative")

    def test_config_rejects_bad_affinity(self):
        with pytest.raises(ValueError, match="worker_affinity"):
            TrainerConfig(num_topics=8, worker_affinity=(-1,))


class TestLdaStarProcessExecution:
    @pytest.mark.parametrize("sync_mode", ["barrier", "overlap"])
    def test_bit_identical_to_serial(self, corpus, sync_mode):
        runs = {}
        for execution in ("serial", "process"):
            t = LdaStarTrainer(
                corpus, num_topics=10, num_workers=3, seed=9,
                execution=execution, num_processes=2,
                sync_mode=sync_mode if execution == "process" else "barrier",
            )
            try:
                t.train(3, compute_likelihood_every=1)
                runs[execution] = (
                    np.concatenate(
                        [cs.topics.astype(np.int64) for cs in t.state.chunks]
                    ),
                    [r.sim_seconds for r in t.history],
                    [r.log_likelihood_per_token for r in t.history],
                )
                t.state.validate()
            finally:
                t.close()
        assert np.array_equal(runs["serial"][0], runs["process"][0])
        assert runs["serial"][1] == runs["process"][1]
        assert runs["serial"][2] == runs["process"][2]

    def test_rejects_bad_execution(self, corpus):
        with pytest.raises(ValueError, match="execution"):
            LdaStarTrainer(corpus, num_topics=10, execution="threads")

    def test_rejects_prereduce(self, corpus):
        """LDA* validates its sync mode through ``TrainerConfig``."""
        with pytest.raises(
            ValueError, match="sync_mode must be 'barrier' or 'overlap'"
        ):
            LdaStarTrainer(corpus, num_topics=10, execution="process",
                           sync_mode="prereduce")

    def test_overlap_requires_process(self, corpus):
        with pytest.raises(ValueError, match="overlap"):
            LdaStarTrainer(corpus, num_topics=10, sync_mode="overlap")

    def test_rejects_empty_affinity(self, corpus):
        """An empty affinity raises, as it does for culda."""
        with pytest.raises(ValueError, match="non-empty"):
            LdaStarTrainer(corpus, num_topics=10, execution="process",
                           worker_affinity=[])


class TestConfigAndRegistrySurface:
    def test_config_rejects_bad_execution(self):
        with pytest.raises(ValueError, match="execution"):
            TrainerConfig(num_topics=8, execution="gpu")

    def test_config_rejects_bad_num_workers(self):
        with pytest.raises(ValueError, match="num_workers"):
            TrainerConfig(num_topics=8, num_workers=0)

    def test_create_trainer_forwards_execution(self, corpus):
        t = create_trainer(
            "culda", corpus, topics=12, gpus=2, execution="process",
            num_workers=2, seed=5,
        )
        try:
            t.partial_fit(2, compute_likelihood=False)
            z = np.concatenate(
                [cs.topics.astype(np.int64) for cs in t.state.chunks]
            )
        finally:
            t.close()
        ref_t = CuLdaTrainer(
            corpus, TrainerConfig(num_topics=12, num_gpus=2, seed=5)
        )
        ref_t.train(2, compute_likelihood_every=0)
        z_ref = np.concatenate(
            [cs.topics.astype(np.int64) for cs in ref_t.state.chunks]
        )
        assert np.array_equal(z, z_ref)

    @pytest.mark.parametrize("entry", ["config", "create_trainer", "cli"])
    def test_rejects_prereduce(self, corpus, entry, capsys):
        """``sync_mode="prereduce"`` is gone (process execution always
        pre-reduces): every culda entry point refuses it, no alias."""
        if entry == "cli":
            from repro.cli import main

            with pytest.raises(SystemExit) as exc:
                main(["train", "--execution", "process",
                      "--sync-mode", "prereduce"])
            assert exc.value.code == 2
            assert "prereduce" in capsys.readouterr().err
            return
        with pytest.raises(ValueError, match="'prereduce'"):
            if entry == "config":
                TrainerConfig(num_topics=8, execution="process",
                              sync_mode="prereduce")
            else:
                create_trainer("culda", corpus, topics=8,
                               execution="process", sync_mode="prereduce")

    def test_create_trainer_forwards_ldastar_execution(self, corpus):
        t = create_trainer(
            "ldastar", corpus, topics=10, workers=3, execution="process",
            num_workers=2, seed=9,
        )
        try:
            t.partial_fit(1, compute_likelihood=False)
            assert t.describe()["native"]["execution"] == "process"
        finally:
            t.close()
