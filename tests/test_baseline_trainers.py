"""Tests for the modeled baseline trainers (WarpLDA, SaberLDA, LDA*)."""

import numpy as np
import pytest

from repro.baselines.ldastar import LdaStarTrainer
from repro.baselines.saberlda import SaberLdaTrainer, saberlda_config
from repro.baselines.warplda import WarpLdaConfig, WarpLdaTrainer
from repro.core import CuLdaTrainer, TrainerConfig
from repro.core.trainer import mean_tokens_per_sec
from repro.gpusim.platform import TITAN_X_MAXWELL


class TestWarpLda:
    def test_converges(self, medium_corpus):
        t = WarpLdaTrainer(medium_corpus, WarpLdaConfig(num_topics=16, seed=0))
        hist = t.train(12)
        assert hist[-1].log_likelihood_per_token > hist[0].log_likelihood_per_token

    def test_counts_consistent_after_training(self, medium_corpus):
        t = WarpLdaTrainer(medium_corpus, WarpLdaConfig(num_topics=8, seed=0))
        t.train(3, compute_likelihood_every=0)
        m = t.model
        theta = np.zeros_like(m.theta)
        phi = np.zeros_like(m.phi)
        np.add.at(theta, (t.doc_ids, m.z), 1)
        np.add.at(phi, (m.z, t.word_ids), 1)
        assert np.array_equal(theta, m.theta)
        assert np.array_equal(phi, m.phi)
        assert np.array_equal(phi.sum(axis=1), m.topic_totals)

    def test_mh_rounds_validated(self):
        with pytest.raises(ValueError):
            WarpLdaConfig(num_topics=8, mh_rounds=0)

    def test_cpu_throughput_band(self, medium_corpus):
        """WarpLDA sits in the ~100M tokens/s band (Table 4: 93.5-108M)."""
        t = WarpLdaTrainer(medium_corpus, WarpLdaConfig(num_topics=16, seed=0))
        t.train(3, compute_likelihood_every=0)
        tps = mean_tokens_per_sec(t.history)
        assert 3e7 < tps < 1e9  # loose band at test scale (cache resident)

    def test_deterministic(self, medium_corpus):
        a = WarpLdaTrainer(medium_corpus, WarpLdaConfig(num_topics=8, seed=4))
        b = WarpLdaTrainer(medium_corpus, WarpLdaConfig(num_topics=8, seed=4))
        a.train(2, compute_likelihood_every=0)
        b.train(2, compute_likelihood_every=0)
        assert np.array_equal(a.model.z, b.model.z)


class TestSaberLda:
    def test_is_single_gpu_only(self, medium_corpus):
        with pytest.raises(ValueError, match="single-GPU"):
            saberlda_config(num_topics=8, num_gpus=2)

    def test_design_point(self):
        cfg = saberlda_config(num_topics=8)
        assert not cfg.compress
        assert not cfg.use_l1_for_indices
        assert cfg.share_p2_tree

    def test_converges(self, medium_corpus):
        t = SaberLdaTrainer(medium_corpus, num_topics=16, seed=0)
        hist = t.train(8)
        assert hist[-1].log_likelihood_per_token > hist[0].log_likelihood_per_token

    def test_slower_than_culda_on_same_gpu(self, scaling_corpus):
        """The Section 7.2 claim, controlled: same GPU, same corpus."""
        saber = SaberLdaTrainer(
            scaling_corpus, num_topics=64, device_spec=TITAN_X_MAXWELL, seed=0
        )
        saber.train(3, compute_likelihood_every=0)
        culda = CuLdaTrainer(
            scaling_corpus,
            TrainerConfig(num_topics=64, seed=0),
            device_spec=TITAN_X_MAXWELL,
        )
        culda.train(3, compute_likelihood_every=0)
        assert mean_tokens_per_sec(culda.history) > mean_tokens_per_sec(saber.history)


class TestLdaStar:
    def test_converges(self, medium_corpus):
        t = LdaStarTrainer(medium_corpus, num_topics=16, num_workers=4, seed=0)
        hist = t.train(8)
        assert hist[-1].log_likelihood_per_token > hist[0].log_likelihood_per_token

    def test_token_conservation(self, medium_corpus):
        t = LdaStarTrainer(medium_corpus, num_topics=8, num_workers=4, seed=0)
        t.train(3, compute_likelihood_every=0)
        assert int(t.state.phi.sum(dtype=np.int64)) == medium_corpus.num_tokens

    def test_network_bound(self, scaling_corpus):
        """The paper's core claim: LDA* is much slower than 1 CuLDA GPU."""
        star = LdaStarTrainer(scaling_corpus, num_topics=64, num_workers=8, seed=0)
        star.train(2, compute_likelihood_every=0)
        culda = CuLdaTrainer(
            scaling_corpus,
            TrainerConfig(num_topics=64, seed=0),
            device_spec=TITAN_X_MAXWELL,
        )
        culda.train(2, compute_likelihood_every=0)
        assert mean_tokens_per_sec(culda.history) > 3 * mean_tokens_per_sec(star.history)

    def test_invalid_workers(self, medium_corpus):
        with pytest.raises(ValueError):
            LdaStarTrainer(medium_corpus, num_topics=8, num_workers=0)

    def test_more_workers_more_network_cost(self, medium_corpus):
        """Dense pulls scale with W: the network term grows (Section 7.2)."""
        t2 = LdaStarTrainer(medium_corpus, num_topics=16, num_workers=2, seed=0)
        t8 = LdaStarTrainer(medium_corpus, num_topics=16, num_workers=8, seed=0)
        n2 = t2._network_seconds(changed_tokens=1000)
        n8 = t8._network_seconds(changed_tokens=1000)
        assert n8 > n2
