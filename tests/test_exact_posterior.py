"""Fold-in against the exact posterior, by enumeration.

With phi frozen, one document of N tokens has K^N topic assignments, so
on a small instance the fold-in posterior over the document's topic
counts can be enumerated outright:

    p(n | w) ∝ prod_k Gamma(alpha + n_k) * sum_{z with counts n} prod_i p*(z_i, w_i)

The chains run through the public ``InferenceSession.transform``, as
many copies of the one document, each on its own RNG stream.  With
``burn_in = num_sweeps - 1`` the returned mixture is
``(n + alpha) / (N + K alpha)`` for the final counts n, so
``theta * (N + K alpha) - alpha`` rounds back to them.

The bound is aware of Monte Carlo error.  For M independent draws from
the exact target, the expected TV of their histogram is about
``sum_s sqrt(p_s (1 - p_s) / (2 pi M))``, and one draw moves the TV by at
most 1/M, so McDiarmid's inequality puts the TV above that mean plus
``sqrt(ln(1e6) / 2M)`` with probability below 1e-6.  A chain whose
stationary law is not the posterior, or that has not mixed, sits above
the bound; ``test_rejects_a_wrong_target`` shows that a target 0.06 away
in TV is caught at this sample size.
"""

from __future__ import annotations

import itertools
from math import lgamma, log

import numpy as np
import pytest

from repro.model import InferenceSession, TopicModel

_K, _N, _V, _ALPHA, _BETA = 3, 5, 4, 0.3, 0.01
_DOC = np.array([0, 1, 2, 3, 1], dtype=np.int64)
_CHAINS = 20_000
_SWEEPS = 20


@pytest.fixture(scope="module")
def model() -> TopicModel:
    # p* rows drawn from Dirichlet(0.5), carried by integer counts.
    rng = np.random.default_rng(2024)
    phi = np.rint(rng.dirichlet(np.full(_V, 0.5), size=_K) * 1000)
    return TopicModel(phi.astype(np.int64), phi.sum(axis=1).astype(np.int64),
                      _ALPHA, _BETA)


def _exact_counts_posterior(p_star: np.ndarray, alpha: float) -> dict:
    """Posterior over topic-count vectors, from all K^N assignments."""
    post: dict[tuple[int, ...], float] = {}
    for z in itertools.product(range(_K), repeat=_N):
        n = tuple(np.bincount(z, minlength=_K).tolist())
        lp = sum(lgamma(alpha + c) for c in n)
        lp += sum(log(p_star[k, w]) for k, w in zip(z, _DOC))
        post[n] = post.get(n, 0.0) + np.exp(lp)
    total = sum(post.values())
    return {n: p / total for n, p in post.items()}


def _tv(counts: dict, target: dict, m: int) -> float:
    return 0.5 * sum(abs(counts.get(n, 0) / m - p) for n, p in target.items())


def _bound(target: dict, m: int) -> float:
    mc_mean = sum(np.sqrt(p * (1 - p) / (2 * np.pi * m)) for p in target.values())
    return mc_mean + np.sqrt(np.log(1e6) / (2 * m))


@pytest.fixture(scope="module")
def final_counts(model) -> dict:
    session = InferenceSession(model, num_sweeps=_SWEEPS, burn_in=_SWEEPS - 1)
    theta = session.transform([_DOC] * _CHAINS, seed=1)
    counts = np.rint(theta * (_N + _K * _ALPHA) - _ALPHA).astype(np.int64)
    assert np.all(counts.sum(axis=1) == _N)
    hist: dict[tuple[int, ...], int] = {}
    for row in map(tuple, counts.tolist()):
        hist[row] = hist.get(row, 0) + 1
    return hist


def test_fold_in_matches_exact_posterior(model, final_counts):
    target = _exact_counts_posterior(model.word_given_topic(), _ALPHA)
    assert len(target) == 21  # compositions of 5 into 3 parts
    assert set(final_counts) <= set(target)
    assert _tv(final_counts, target, _CHAINS) < _bound(target, _CHAINS)


def test_rejects_a_wrong_target(model, final_counts):
    p_star = model.word_given_topic()
    target = _exact_counts_posterior(p_star, _ALPHA)
    wrong = _exact_counts_posterior(p_star, 0.4)
    assert 0.5 * sum(abs(wrong[n] - target[n]) for n in target) < 0.07
    assert _tv(final_counts, wrong, _CHAINS) > _bound(wrong, _CHAINS)
