"""Tests for the log-likelihood metric (Figure 8 y-axis)."""

import numpy as np
import pytest
from scipy.special import gammaln

from repro.api import algorithm_names
from repro.core import CuLdaTrainer, TrainerConfig
from repro.core.likelihood import log_likelihood, log_likelihood_per_token, perplexity
from repro.core.model import LdaState


def brute_force_ll(state: LdaState) -> float:
    """Dense O(KV + DK) reference computation of the same quantity."""
    k, v = state.num_topics, state.num_words
    a, b = state.alpha, state.beta
    phi = state.phi.astype(np.float64)
    word = k * gammaln(v * b) - k * v * gammaln(b)
    word += gammaln(phi + b).sum()
    word -= gammaln(state.topic_totals + v * b).sum()
    doc = 0.0
    for cs in state.chunks:
        theta = cs.theta.to_dense().astype(np.float64)
        doc += theta.shape[0] * gammaln(k * a) - theta.size * gammaln(a)
        doc += gammaln(theta + a).sum()
        doc -= gammaln(theta.sum(axis=1) + k * a).sum()
    return word + doc


class TestLikelihood:
    def test_matches_brute_force(self, small_corpus):
        state = LdaState.initialize(small_corpus, TrainerConfig(num_topics=7, seed=0))
        assert log_likelihood(state) == pytest.approx(brute_force_ll(state), rel=1e-10)

    def test_matches_brute_force_multichunk(self, small_corpus):
        cfg = TrainerConfig(num_topics=5, num_gpus=2, chunks_per_gpu=2, seed=1)
        state = LdaState.initialize(small_corpus, cfg)
        assert log_likelihood(state) == pytest.approx(brute_force_ll(state), rel=1e-10)

    def test_per_token_normalisation(self, small_corpus):
        state = LdaState.initialize(small_corpus, TrainerConfig(num_topics=5, seed=0))
        assert log_likelihood_per_token(state) == pytest.approx(
            log_likelihood(state) / small_corpus.num_tokens
        )

    def test_negative_and_bounded(self, small_corpus):
        """Figure 8 plots values in roughly [-15, -5] — always negative."""
        state = LdaState.initialize(small_corpus, TrainerConfig(num_topics=5, seed=0))
        ll = log_likelihood_per_token(state)
        assert -20 < ll < 0

    def test_perplexity_positive(self, small_corpus):
        state = LdaState.initialize(small_corpus, TrainerConfig(num_topics=5, seed=0))
        assert perplexity(state) > 1.0

    def test_increases_with_structure(self, small_corpus):
        """A trained model must score higher than a random one."""
        cfg = TrainerConfig(num_topics=8, seed=0)
        t = CuLdaTrainer(small_corpus, cfg)
        before = log_likelihood_per_token(t.state)
        t.train(10, compute_likelihood_every=0)
        after = log_likelihood_per_token(t.state)
        assert after > before


class TestDecomposedLikelihood:
    """The worker-evaluated likelihood path must replay serial bit-for-bit."""

    def test_from_terms_bit_identical(self, small_corpus):
        from repro.core.likelihood import (
            chunk_doc_terms,
            log_likelihood_from_terms,
        )

        cfg = TrainerConfig(num_topics=6, num_gpus=2, chunks_per_gpu=2, seed=3)
        t = CuLdaTrainer(small_corpus, cfg)
        t.train(2, compute_likelihood_every=0)
        state = t.state
        terms = [
            chunk_doc_terms(
                cs.theta.data, cs.chunk.doc_offsets, state.num_topics,
                state.alpha,
            )
            for cs in state.chunks
        ]
        assert log_likelihood_from_terms(state, terms) == log_likelihood(state)


class TestNumericalGuard:
    """NaN/inf likelihoods are typed errors, not silent poison."""

    def test_finite_values_pass_through(self):
        from repro.core.likelihood import ensure_finite

        assert ensure_finite(-7.25) == -7.25
        assert isinstance(ensure_finite(np.float64(-1.0)), float)

    def test_nan_and_inf_raise_named_iteration(self):
        from repro.core.likelihood import NumericalError, ensure_finite

        with pytest.raises(NumericalError, match="at iteration 12"):
            ensure_finite(float("nan"), iteration=12)
        with pytest.raises(NumericalError, match="numerically broken"):
            ensure_finite(float("inf"))
        try:
            ensure_finite(float("-inf"), iteration=3)
        except NumericalError as exc:
            assert exc.iteration == 3
            assert exc.value == float("-inf")

    def test_is_an_arithmetic_error(self):
        from repro.core.likelihood import NumericalError

        assert issubclass(NumericalError, ArithmeticError)

    @pytest.mark.parametrize("algorithm", algorithm_names())
    def test_trainer_surface_raises_on_poisoned_state(
        self, small_corpus, monkeypatch, algorithm
    ):
        """End to end: a trainer whose LL comes out non-finite raises
        the typed error naming the iteration instead of recording nan."""
        from repro.api import create_trainer
        from repro.core.likelihood import NumericalError

        # where each trainer computes its serial LL/token
        target = {
            "culda": "repro.core.trainer.log_likelihood_per_token",
            "saberlda": "repro.core.trainer.log_likelihood_per_token",
            "ldastar": "repro.baselines.ldastar.log_likelihood_per_token",
        }.get(
            algorithm,
            "repro.baselines.plain_cgs.PlainCgsModel.log_likelihood_per_token",
        )
        trainer = create_trainer(algorithm, small_corpus, topics=4, seed=0)
        monkeypatch.setattr(target, lambda state: float("nan"))
        with pytest.raises(NumericalError, match="at iteration 0"):
            trainer.fit(1, likelihood_every=1)
