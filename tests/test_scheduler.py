"""Tests for Algorithm 1 scheduling (WorkSchedule1 / WorkSchedule2)."""

import numpy as np
import pytest

from repro.core import CuLdaTrainer, TrainerConfig
from repro.gpusim.platform import PASCAL_PLATFORM, TITAN_XP_PASCAL
from repro.gpusim.spec import DeviceSpec


def train(corpus, iters=3, **cfg_kwargs):
    cfg = TrainerConfig(num_topics=12, seed=3, **cfg_kwargs)
    t = CuLdaTrainer(corpus, cfg, platform=PASCAL_PLATFORM, validate_every=iters)
    t.train(iters, compute_likelihood_every=0)
    return t


class TestWorkSchedule1:
    def test_invariants_after_training(self, medium_corpus):
        t = train(medium_corpus, num_gpus=2)
        t.state.validate()

    def test_no_per_iteration_chunk_transfers(self, medium_corpus):
        """M=1: data moves only at start/end (Algorithm 1, WorkSchedule1)."""
        t = train(medium_corpus, num_gpus=1, chunks_per_gpu=1)
        launches = t.devices[0].gpu.ledger.launches
        # initial: phi + 1 chunk = 2 transfers, nothing per iteration.
        assert launches["transfer"] == 2

    def test_round_robin_ownership(self, medium_corpus):
        t = train(medium_corpus, num_gpus=2, chunks_per_gpu=2)
        assert t.devices[0].chunk_ids == [0, 2]
        assert t.devices[1].chunk_ids == [1, 3]


class TestWorkSchedule2:
    def test_transfers_every_iteration(self, medium_corpus):
        t = train(medium_corpus, iters=2, num_gpus=1, chunks_per_gpu=2)
        launches = t.devices[0].gpu.ledger.launches
        # initial phi + per iteration: 2 chunks x (h2d + d2h) x 2 iters
        assert launches["transfer"] == 1 + 2 * 2 * 2

    def test_invariants_hold(self, medium_corpus):
        t = train(medium_corpus, iters=2, num_gpus=2, chunks_per_gpu=2)
        t.state.validate()

    def test_overlap_reduces_iteration_time(self, medium_corpus):
        cfg_on = TrainerConfig(
            num_topics=12, seed=3, chunks_per_gpu=4, overlap_transfers=True
        )
        cfg_off = TrainerConfig(
            num_topics=12, seed=3, chunks_per_gpu=4, overlap_transfers=False
        )
        t_on = CuLdaTrainer(medium_corpus, cfg_on, platform=PASCAL_PLATFORM)
        t_off = CuLdaTrainer(medium_corpus, cfg_off, platform=PASCAL_PLATFORM)
        t_on.train(3, compute_likelihood_every=0)
        t_off.train(3, compute_likelihood_every=0)
        dur_on = sum(r.sim_seconds for r in t_on.history)
        dur_off = sum(r.sim_seconds for r in t_off.history)
        assert dur_on < dur_off

    def test_staging_allocations(self, medium_corpus):
        t = train(medium_corpus, iters=1, chunks_per_gpu=2)
        memory = t.devices[0].gpu.memory
        assert memory.has("staging[0]") and memory.has("staging[1]")
        assert memory.has("phi_replica")


class TestMemoryEnforcement:
    def test_resident_chunks_must_fit(self, medium_corpus):
        """A tiny device cannot hold the corpus resident: M=1 must fail."""
        tiny = DeviceSpec(
            name="tiny", arch="Pascal", mem_bandwidth_gbps=550.0,
            peak_gflops=12_000.0, num_sms=28, shared_mem_per_sm_kb=96,
            l1_kb_per_sm=48, memory_gb=0.0005,
        )
        from repro.gpusim.memory import DeviceOutOfMemoryError

        cfg = TrainerConfig(num_topics=12, seed=0)
        with pytest.raises(DeviceOutOfMemoryError):
            CuLdaTrainer(medium_corpus, cfg, device_spec=tiny)

    def test_streaming_fits_where_resident_does_not(self, medium_corpus):
        """Raising M shrinks the per-device footprint (Section 5.1)."""
        # Find a budget that fits phi + 2 staging slots but not all chunks.
        probe = CuLdaTrainer(
            medium_corpus,
            TrainerConfig(num_topics=12, seed=0, chunks_per_gpu=8),
            device_spec=TITAN_XP_PASCAL,
        )
        used = probe.devices[0].gpu.memory.used_bytes
        tight = DeviceSpec(
            name="tight", arch="Pascal", mem_bandwidth_gbps=550.0,
            peak_gflops=12_000.0, num_sms=28, shared_mem_per_sm_kb=96,
            l1_kb_per_sm=48, memory_gb=used * 1.05 / 1e9,
        )
        t = CuLdaTrainer(
            medium_corpus,
            TrainerConfig(num_topics=12, seed=0, chunks_per_gpu=8),
            device_spec=tight,
        )
        t.train(1, compute_likelihood_every=0)
        t.state.validate()


class TestScheduleEquivalence:
    def test_m_does_not_change_token_conservation(self, medium_corpus):
        for m in (1, 2, 4):
            t = train(medium_corpus, iters=2, chunks_per_gpu=m)
            assert int(t.state.phi.sum(dtype=np.int64)) == medium_corpus.num_tokens

    def test_g_does_not_change_token_conservation(self, medium_corpus):
        for g in (1, 2, 4):
            t = train(medium_corpus, iters=2, num_gpus=g)
            assert int(t.state.phi.sum(dtype=np.int64)) == medium_corpus.num_tokens


#: Per-iteration simulated seconds (``float.hex``) of three iterations on
#: the ``small_corpus`` fixture, K=12, seed 3, Pascal.  These pin the
#: clock itself: the serial-vs-process identity tests only show that two
#: executors agree with each other, not that either charges what it did.
CLOCK_PINS = [
    (
        dict(num_gpus=1, chunks_per_gpu=1),
        ["0x1.2b8418bb45e20p-16", "0x1.2c334a93f36e2p-16", "0x1.2b9971bef929cp-16"],
    ),
    (
        dict(num_gpus=1, chunks_per_gpu=1, use_l1_for_indices=False),
        ["0x1.3544fd2fdb348p-16", "0x1.3634331a61ae6p-16", "0x1.3565c975220a8p-16"],
    ),
    (
        dict(num_gpus=2, chunks_per_gpu=1),
        ["0x1.64215f4cb4e21p-15", "0x1.6447df630f67cp-15", "0x1.64204f53d16bep-15"],
    ),
    (
        dict(num_gpus=1, chunks_per_gpu=2),
        ["0x1.d446195142e40p-15", "0x1.d4895595c34aap-15", "0x1.d466780b2e1b8p-15"],
    ),
    (
        dict(num_gpus=1, chunks_per_gpu=2, overlap_transfers=False),
        ["0x1.4a7fbb21bd8a0p-14", "0x1.4a9ceb64ebe35p-14", "0x1.4a816ba4a7450p-14"],
    ),
    (
        dict(num_gpus=2, chunks_per_gpu=2),
        ["0x1.4b62eae8c94e8p-14", "0x1.4b6c88e5ad019p-14", "0x1.4b6d3202130e8p-14"],
    ),
    (
        dict(num_gpus=2, chunks_per_gpu=4, overlap_transfers=False),
        ["0x1.667fa4be76a07p-13", "0x1.6677159a37e99p-13", "0x1.66806c4abffaep-13"],
    ),
    (
        dict(num_gpus=2, chunks_per_gpu=4, use_l1_for_indices=False),
        ["0x1.de91893784343p-14", "0x1.de8408dfc93f8p-14", "0x1.de923467c597ep-14"],
    ),
]


class TestSimulatedClockPin:
    @pytest.mark.parametrize(
        "cfg_kwargs, expected", CLOCK_PINS,
        ids=[
            "ws1-1gpu", "ws1-1gpu-no-l1", "ws1-2gpu", "ws2-overlap",
            "ws2-no-overlap", "ws2-2gpu-overlap", "ws2-2gpu-m4-no-overlap",
            "ws2-2gpu-m4-no-l1",
        ],
    )
    def test_sim_seconds_pinned(self, small_corpus, cfg_kwargs, expected):
        cfg = TrainerConfig(num_topics=12, seed=3, **cfg_kwargs)
        t = CuLdaTrainer(small_corpus, cfg, platform=PASCAL_PLATFORM)
        t.train(3, compute_likelihood_every=0)
        assert [r.sim_seconds.hex() for r in t.history] == expected
