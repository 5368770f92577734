"""Integration tests for the end-to-end CuLDA trainer."""

import numpy as np
import pytest

from repro.analysis.breakdown import full_fractions
from repro.core import CuLdaTrainer, TrainerConfig
from repro.core.trainer import mean_tokens_per_sec
from repro.gpusim.platform import (
    MAXWELL_PLATFORM,
    PASCAL_PLATFORM,
    VOLTA_PLATFORM,
)


class TestTraining:
    def test_likelihood_improves(self, medium_corpus):
        cfg = TrainerConfig(num_topics=16, seed=0)
        t = CuLdaTrainer(medium_corpus, cfg, platform=VOLTA_PLATFORM)
        hist = t.train(15)
        first = hist[0].log_likelihood_per_token
        last = hist[-1].log_likelihood_per_token
        assert last > first + 0.1  # solid improvement, not noise

    def test_reproducible_runs(self, medium_corpus):
        cfg = TrainerConfig(num_topics=12, seed=9)
        a = CuLdaTrainer(medium_corpus, cfg, platform=VOLTA_PLATFORM)
        b = CuLdaTrainer(medium_corpus, cfg, platform=VOLTA_PLATFORM)
        ha = a.train(4)
        hb = b.train(4)
        assert np.array_equal(a.state.phi, b.state.phi)
        assert [r.log_likelihood_per_token for r in ha] == [
            r.log_likelihood_per_token for r in hb
        ]

    def test_history_metrics_sane(self, medium_corpus):
        cfg = TrainerConfig(num_topics=12, seed=0)
        t = CuLdaTrainer(medium_corpus, cfg, platform=VOLTA_PLATFORM)
        hist = t.train(5)
        for r in hist:
            assert r.sim_seconds > 0
            assert r.tokens_per_sec > 0
            assert 0 <= r.p1_fraction <= 1
            assert 0 <= r.changed_fraction <= 1
            assert r.mean_kd > 0
        assert hist[-1].cumulative_seconds > hist[0].cumulative_seconds

    def test_changed_fraction_decreases(self, medium_corpus):
        """Early iterations churn topics; converged ones do not."""
        cfg = TrainerConfig(num_topics=16, seed=0)
        t = CuLdaTrainer(medium_corpus, cfg, platform=VOLTA_PLATFORM)
        hist = t.train(20, compute_likelihood_every=0)
        assert hist[-1].changed_fraction < hist[0].changed_fraction

    def test_likelihood_cadence(self, medium_corpus):
        cfg = TrainerConfig(num_topics=12, seed=0)
        t = CuLdaTrainer(medium_corpus, cfg, platform=VOLTA_PLATFORM)
        hist = t.train(6, compute_likelihood_every=3)
        lls = [r.log_likelihood_per_token for r in hist]
        assert lls[0] is None and lls[1] is None and lls[2] is not None
        assert lls[5] is not None

    def test_zero_iterations(self, medium_corpus):
        cfg = TrainerConfig(num_topics=12, seed=0)
        t = CuLdaTrainer(medium_corpus, cfg, platform=VOLTA_PLATFORM)
        assert t.train(0) == []
        with pytest.raises(ValueError):
            mean_tokens_per_sec(t.history)

    def test_incremental_training_continues(self, medium_corpus):
        cfg = TrainerConfig(num_topics=12, seed=0)
        t = CuLdaTrainer(medium_corpus, cfg, platform=VOLTA_PLATFORM)
        t.train(2)
        h = t.train(2)
        assert len(t.history) == 4
        assert h[-1].iteration == 3


class TestPlatformBehaviour:
    def test_throughput_ordering(self, medium_corpus):
        """Volta > Pascal > Maxwell (Table 4 / Figure 7 ordering)."""
        tps = {}
        for plat in (MAXWELL_PLATFORM, PASCAL_PLATFORM, VOLTA_PLATFORM):
            cfg = TrainerConfig(num_topics=16, seed=1)
            t = CuLdaTrainer(medium_corpus, cfg, platform=plat)
            t.train(5, compute_likelihood_every=0)
            tps[plat.name] = mean_tokens_per_sec(t.history)
        assert tps["Volta"] > tps["Pascal"] > tps["Maxwell"]

    def test_platform_gpu_limit(self, medium_corpus):
        cfg = TrainerConfig(num_topics=12, num_gpus=2, seed=0)
        with pytest.raises(ValueError, match="has 1 GPUs"):
            CuLdaTrainer(medium_corpus, cfg, platform=MAXWELL_PLATFORM)

    def test_platform_and_spec_exclusive(self, medium_corpus):
        cfg = TrainerConfig(num_topics=12, seed=0)
        with pytest.raises(ValueError, match="not both"):
            CuLdaTrainer(
                medium_corpus, cfg,
                platform=VOLTA_PLATFORM, device_spec=VOLTA_PLATFORM.gpu,
            )

    def test_multi_gpu_speedup(self, scaling_corpus):
        """More GPUs => shorter simulated iterations (Figure 9 shape)."""
        times = {}
        for g in (1, 4):
            cfg = TrainerConfig(num_topics=64, num_gpus=g, seed=1)
            t = CuLdaTrainer(scaling_corpus, cfg, platform=PASCAL_PLATFORM)
            t.train(3, compute_likelihood_every=0)
            times[g] = np.mean([r.sim_seconds for r in t.history])
        speedup = times[1] / times[4]
        assert 1.5 < speedup <= 4.0

    def test_multi_gpu_converges_like_single(self, medium_corpus):
        lls = {}
        for g in (1, 4):
            cfg = TrainerConfig(num_topics=16, num_gpus=g, seed=1)
            t = CuLdaTrainer(medium_corpus, cfg, platform=PASCAL_PLATFORM)
            hist = t.train(12)
            lls[g] = hist[-1].log_likelihood_per_token
        assert lls[4] == pytest.approx(lls[1], abs=0.25)


class TestBreakdown:
    def test_sampling_dominates(self, medium_corpus):
        """Table 5: sampling is ~80-88% of kernel time."""
        cfg = TrainerConfig(num_topics=32, seed=0)
        t = CuLdaTrainer(medium_corpus, cfg, platform=VOLTA_PLATFORM)
        t.train(5, compute_likelihood_every=0)
        merged = t.kernel_breakdown()
        kernels = ("sampling", "update_theta", "update_phi")
        total = sum(merged[k] for k in kernels)
        fr = {k: merged[k] / total for k in kernels}
        assert sum(fr.values()) == pytest.approx(1.0)
        assert fr["sampling"] >= 0.5

    def test_breakdown_requires_training(self, medium_corpus):
        """Before any iteration the Table 5 kernels hold no time, so
        normalising over them is undefined."""
        cfg = TrainerConfig(num_topics=12, seed=0)
        t = CuLdaTrainer(medium_corpus, cfg, platform=VOLTA_PLATFORM)
        merged = t.kernel_breakdown()
        assert not any(
            merged.get(k) for k in ("sampling", "update_theta", "update_phi")
        )

    def test_full_fractions_requires_training(self, medium_corpus):
        """Construction charges the initial upload as ``transfer``; the
        shares are refused until the kernels have run."""
        t = CuLdaTrainer(medium_corpus, TrainerConfig(num_topics=12, seed=0),
                         platform=VOLTA_PLATFORM)
        assert t.kernel_breakdown().get("transfer", 0.0) > 0
        with pytest.raises(ValueError, match="no recorded kernel time"):
            full_fractions(t)
        t.train(1, compute_likelihood_every=0)
        shares = full_fractions(t)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["sampling"] > 0
