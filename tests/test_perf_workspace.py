"""Tests for the perf layer: Workspace pool, lnG tables, dtype paths."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import gammaln

from repro.core.config import TrainerConfig
from repro.core.model import LdaState
from repro.core.sampler import sample_chunk
from repro.core.trainer import CuLdaTrainer
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec
from repro.gpusim import PASCAL_PLATFORM
from repro.perf import Workspace, counts_of_counts_lngamma, lngamma_table


@pytest.fixture(scope="module")
def perf_corpus():
    return generate_synthetic_corpus(
        small_spec(num_docs=80, num_words=150, mean_doc_len=30, num_topics=6),
        seed=21,
    )


class TestWorkspace:
    def test_take_reuses_buffer(self):
        ws = Workspace()
        a = ws.take("x", 100)
        b = ws.take("x", 60)
        assert b.base is a.base or b.base is a  # same backing allocation
        assert ws.misses == 1 and ws.hits == 1

    def test_take_grows(self):
        ws = Workspace()
        ws.take("x", 10)
        big = ws.take("x", 1000)
        assert big.shape == (1000,)
        assert ws.misses == 2

    def test_growth_fits_the_take_exactly(self):
        ws = Workspace()
        ws.take("x", 100)
        ws.take("x", 101)
        ws.arange(7)
        assert ws.nbytes == (101 + 7) * 8 and ws.misses == 2

    def test_roles_and_dtypes_do_not_alias(self):
        ws = Workspace()
        a = ws.take("a", 8, np.dtype(np.int64))
        b = ws.take("b", 8, np.dtype(np.int64))
        c = ws.take("a", 8, np.dtype(np.int32))
        a[...] = 1
        b[...] = 2
        c[...] = 3
        assert np.all(a == 1) and np.all(b == 2) and np.all(c == 3)

    def test_zeros(self):
        ws = Workspace()
        ws.take("z", 16)[...] = 7.0
        assert np.all(ws.zeros("z", 16) == 0.0)

    def test_2d_shapes(self):
        ws = Workspace()
        m = ws.take("m", (4, 5))
        assert m.shape == (4, 5) and m.dtype == np.float64

    def test_arange_is_readonly_and_grows(self):
        ws = Workspace()
        r = ws.arange(5)
        assert np.array_equal(r, np.arange(5))
        with pytest.raises(ValueError):
            r[0] = 3
        assert np.array_equal(ws.arange(50), np.arange(50))

    def test_memo(self):
        ws = Workspace()
        calls = []
        ws.memo("k", lambda: calls.append(1) or 42)
        assert ws.memo("k", lambda: calls.append(1) or 42) == 42
        assert len(calls) == 1

    def test_clear(self):
        ws = Workspace()
        ws.take("x", 100)
        ws.memo("k", lambda: 1)
        ws.clear()
        assert ws.nbytes == 0
        assert ws.describe()["memo_entries"] == 0

    def test_compute_dtype_drives_default_take(self):
        """An untyped take is the training kernel's one dtype, float64."""
        ws = Workspace()
        assert ws.take("x", 4).dtype == np.float64
        assert ws.take("x", 4, np.float32).dtype == np.float32


class TestLnGammaTables:
    def test_matches_gammaln_exactly(self):
        tab = lngamma_table(0.01, 300)
        n = np.arange(300, dtype=np.float64)
        assert np.array_equal(tab[:300], gammaln(n + 0.01))

    def test_grows_and_caches(self):
        t1 = lngamma_table(0.5, 10)
        t2 = lngamma_table(0.5, 5)
        assert t2 is t1  # served from cache
        t3 = lngamma_table(0.5, 10 * len(t1))
        assert len(t3) >= 10 * len(t1)

    def test_readonly(self):
        tab = lngamma_table(0.25, 10)
        with pytest.raises(ValueError):
            tab[0] = 0.0

    def test_rejects_nonpositive_offset(self):
        with pytest.raises(ValueError):
            lngamma_table(0.0, 10)
        with pytest.raises(ValueError):
            lngamma_table(-1.0, 10)

    def test_counts_of_counts_equals_direct_sum(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 40, size=(50, 70))
        beta = 0.01
        direct = float(
            np.sum(gammaln(counts[counts > 0] + beta) - gammaln(beta))
        )
        binned = counts_of_counts_lngamma(np.bincount(counts.reshape(-1)), beta)
        assert binned == pytest.approx(direct, rel=1e-12)

    def test_counts_of_counts_all_zero(self):
        assert counts_of_counts_lngamma(np.array([12]), 0.1) == 0.0


def _chunk_inputs(corpus, num_topics, seed):
    config = TrainerConfig(num_topics=num_topics, seed=seed)
    state = LdaState.initialize(corpus, config)
    cs = state.chunks[0]
    return cs, state, config


class TestSamplerWorkspaceEquivalence:
    def test_with_and_without_workspace_bit_identical(self, perf_corpus):
        cs, state, config = _chunk_inputs(perf_corpus, 12, seed=5)
        ws = Workspace()
        for it in range(3):
            rng_a = np.random.default_rng(100 + it)
            rng_b = np.random.default_rng(100 + it)
            bare = sample_chunk(
                cs.chunk, cs.topics, cs.theta, state.phi, state.topic_totals,
                config.effective_alpha, config.effective_beta, rng_a,
            )
            pooled = sample_chunk(
                cs.chunk, cs.topics, cs.theta, state.phi, state.topic_totals,
                config.effective_alpha, config.effective_beta, rng_b,
                workspace=ws,
            )
            assert np.array_equal(bare.new_topics, pooled.new_topics)
            assert bare.stats == pooled.stats

    def test_steady_state_takes_are_hits(self, perf_corpus):
        cs, state, config = _chunk_inputs(perf_corpus, 12, seed=5)
        ws = Workspace()
        args = (
            cs.chunk, cs.topics, cs.theta, state.phi, state.topic_totals,
            config.effective_alpha, config.effective_beta,
        )
        sample_chunk(*args, np.random.default_rng(0), workspace=ws)
        misses_after_first = ws.misses
        sample_chunk(*args, np.random.default_rng(1), workspace=ws)
        # identical shapes on the second pass: every take is a pool hit
        assert ws.misses == misses_after_first


class TestSerialArena:
    def test_every_device_shares_one_arena(self, perf_corpus):
        config = TrainerConfig(num_topics=8, num_gpus=4, seed=2)
        trainer = CuLdaTrainer(perf_corpus, config, platform=PASCAL_PLATFORM)
        trainer.train(2, compute_likelihood_every=0)
        arena = trainer.devices[0].workspace
        assert all(d.workspace is arena for d in trainer.devices)
        stats = trainer.workspace_stats()
        assert len(stats) == 1 and stats[0]["groups"] == [0, 1, 2, 3]
        assert stats[0]["nbytes"] == arena.nbytes


class TestZeroDurationThroughput:
    def test_reports_zero_not_inf(self, perf_corpus, monkeypatch):
        """A zero-cost iteration must report 0.0 tokens/sec, not inf."""
        import repro.core.trainer as trainer_mod
        from repro.core.scheduler import IterationOutcome

        trainer = CuLdaTrainer(perf_corpus, TrainerConfig(num_topics=4, seed=0))

        def fake_run_iteration(devices, state, config, iteration, pool):
            return IterationOutcome(iteration)  # no kernels, no time

        def fake_synchronize(phi, phis, totals, gpus, phi_bytes):
            return phi.copy(), trainer.state.topic_totals.copy()

        monkeypatch.setattr(trainer_mod, "run_iteration", fake_run_iteration)
        monkeypatch.setattr(trainer_mod, "synchronize", fake_synchronize)
        records = trainer.train(1, compute_likelihood_every=0)
        assert records[0].sim_seconds == 0.0
        assert records[0].tokens_per_sec == 0.0
        assert np.isfinite(records[0].tokens_per_sec)
