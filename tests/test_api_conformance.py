"""Conformance suite: every registered algorithm honors the one contract.

Constructs each algorithm via ``create_trainer`` on a tiny synthetic
corpus and asserts the unified ``fit`` semantics: finite LL/token,
monotone cumulative time, token-count conservation, and a coherent
``describe()``.  A new algorithm registered into :mod:`repro.api`
automatically joins this suite.
"""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np
import pytest

from repro.api import LdaTrainer, TrainResult, algorithm_names, create_trainer
from repro.core.likelihood import likelihood_due
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec

#: Per-algorithm keyword overrides keeping the suite fast at test scale.
SMALL_SCALE_KWARGS = {
    "ldastar": {"workers": 2},
    "warplda": {"mh_rounds": 1},
}

ITERATIONS = 3
TOPICS = 8


@pytest.fixture(scope="module")
def api_corpus():
    return generate_synthetic_corpus(
        small_spec(num_docs=30, num_words=60, mean_doc_len=15, num_topics=4),
        seed=11,
    )


def make(name, corpus, **extra):
    kwargs = {"topics": TOPICS, "seed": 5}
    kwargs.update(SMALL_SCALE_KWARGS.get(name, {}))
    kwargs.update(extra)
    return create_trainer(name, corpus, **kwargs)


@pytest.fixture(scope="module", params=algorithm_names())
def fitted(request, api_corpus):
    """(trainer, result) for each registered algorithm, fit once."""
    trainer = make(request.param, api_corpus)
    result = trainer.fit(ITERATIONS)
    return trainer, result


class TestConformance:
    def test_is_lda_trainer(self, fitted):
        trainer, _ = fitted
        assert isinstance(trainer, LdaTrainer)
        assert trainer.name in algorithm_names()

    def test_fit_returns_train_result(self, fitted):
        _, result = fitted
        assert isinstance(result, TrainResult)
        assert result.num_iterations == ITERATIONS
        assert len(result.records) == ITERATIONS

    def test_fit_takes_no_callbacks(self, fitted):
        trainer, _ = fitted
        with pytest.raises(TypeError):
            trainer.fit(3, callbacks=[])

    def test_final_likelihood_finite(self, fitted):
        _, result = fitted
        ll = result.final_log_likelihood
        assert ll is not None and math.isfinite(ll)
        assert ll < 0  # log-probability per token
        for rec in result.records:
            if rec.log_likelihood_per_token is not None:
                assert math.isfinite(rec.log_likelihood_per_token)

    def test_cumulative_time_monotone(self, fitted):
        _, result = fitted
        cum = [r.cumulative_seconds for r in result.records]
        assert all(b > a for a, b in zip(cum, cum[1:]))
        assert all(r.sim_seconds > 0 for r in result.records)
        assert all(r.tokens_per_sec > 0 for r in result.records)

    def test_first_iteration_records_changed_topics(self, fitted):
        """Topics drawn at random mostly move in the first iteration."""
        _, result = fitted
        assert 0 < result.records[0].changed_fraction <= 1

    def test_token_count_conserved(self, fitted, api_corpus):
        trainer, _ = fitted
        assert trainer.num_tokens == api_corpus.num_tokens
        state = trainer.state
        assert int(np.asarray(state.topic_totals, dtype=np.int64).sum()) == (
            api_corpus.num_tokens
        )
        assert int(np.asarray(state.phi, dtype=np.int64).sum()) == (
            api_corpus.num_tokens
        )
        assert np.all(np.asarray(state.phi) >= 0)

    def test_describe(self, fitted):
        trainer, _ = fitted
        info = trainer.describe()
        assert info["name"] == trainer.name
        assert info["description"]
        assert isinstance(info["options"], dict)
        # Native trainers expose their own identity under the adapter.
        assert info["native"]["description"]

    def test_history_and_throughput(self, fitted):
        trainer, result = fitted
        assert trainer.iterations_done == ITERATIONS
        assert len(trainer.history) == ITERATIONS
        assert trainer.average_tokens_per_sec() == pytest.approx(
            result.average_tokens_per_sec()
        )


class TestMeanKd:
    @pytest.mark.parametrize("name", algorithm_names())
    def test_mean_kd_is_sampled_theta_density_per_token(
        self, name, api_corpus
    ):
        """``mean_kd`` is, per token, the nonzero count of its document's
        theta row as the iteration sampled it: iteration 1 reads the
        state iteration 0 left behind."""
        trainer = make(name, api_corpus)
        trainer.fit(1, likelihood_every=0)
        state = trainer.state
        theta = (
            state.doc_topic_matrix()
            if hasattr(state, "doc_topic_matrix")
            else state.theta
        )
        per_doc = np.count_nonzero(theta, axis=1)
        expected = float(per_doc @ api_corpus.doc_lengths()) / (
            api_corpus.num_tokens
        )
        result = trainer.fit(1, likelihood_every=0)
        assert result.records[-1].mean_kd == pytest.approx(expected)


class TestIncrementalFit:
    @pytest.mark.parametrize("name", algorithm_names())
    def test_partial_fit_resumes(self, name, api_corpus):
        trainer = make(name, api_corpus)
        first = trainer.partial_fit(1)
        second = trainer.partial_fit(2)
        assert len(first) == 1 and len(second) == 2
        assert trainer.iterations_done == 3
        iters = [r.iteration for r in first + second]
        assert iters == sorted(iters)

    @pytest.mark.parametrize("name", algorithm_names())
    def test_likelihood_suppressed(self, name, api_corpus):
        trainer = make(name, api_corpus)
        result = trainer.fit(2, likelihood_every=0)
        assert all(r.log_likelihood_per_token is None for r in result.records)


class TestDeterminism:
    @pytest.mark.parametrize("name", algorithm_names())
    def test_same_seed_same_likelihood(self, name, api_corpus):
        """Two fresh trainers with the same seed produce the same chain.

        The sequential samplers and MH baselines are exactly
        reproducible; the conserved-count invariant plus equal LL curves
        is the cheap proxy for 'the functional trajectory matched'.
        """
        a = make(name, api_corpus).fit(2)
        b = make(name, api_corpus).fit(2)
        lls_a = [r.log_likelihood_per_token for r in a.records]
        lls_b = [r.log_likelihood_per_token for r in b.records]
        assert lls_a == lls_b


class TestFitSpan:
    """fit() without callbacks must run ONE underlying train call, so
    cross-iteration process optimizations (sync_mode="overlap") engage
    on the fit/CLI surface — with records identical to the loop."""

    @pytest.mark.parametrize("name", algorithm_names())
    def test_single_span_call_and_cadence(self, api_corpus, name):
        t = make(name, api_corpus)
        calls = []
        real = t.inner.train

        def spy(n, **kwargs):
            calls.append((n, kwargs.get("compute_likelihood_every")))
            return real(n, **kwargs)

        t.inner.train = spy
        result = t.fit(4, likelihood_every=2)
        assert calls == [(4, 2)]
        lls = [r.log_likelihood_per_token for r in result.records]
        assert [ll is not None for ll in lls] == [False, True, False, True]

    @pytest.mark.parametrize("name", algorithm_names())
    def test_span_records_match_per_iteration_loop(self, api_corpus, name):
        span = make(name, api_corpus).fit(4, likelihood_every=2).records
        loop = make(name, api_corpus)
        for it in range(4):
            loop.partial_fit(1, compute_likelihood=likelihood_due(it, 2))
        # plain_cgs times its records on the wall clock
        wall = {"sim_seconds", "cumulative_seconds", "tokens_per_sec"}
        ignored = wall if name == "plain_cgs" else set()

        def fields(records):
            return [
                {k: v for k, v in asdict(r).items() if k not in ignored}
                for r in records
            ]

        assert fields(span) == fields(loop.history)
