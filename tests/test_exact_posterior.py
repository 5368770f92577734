"""Fold-in and training against the exact posterior, by enumeration.

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

Two instances.  K=3, N=5 checks the whole count histogram.  K=20 spans
two blocks of the session's two-level draw (topics 16-19 sit in a zero
padded second block), but its 1,540 count vectors make a histogram too
fine for 20,000 chains; it checks the per-token marginal instead, the
topic occupancy ``q_k = E[n_k] / N``.  The same argument bounds that
statistic's TV, with each topic's standard error taken from the exact
variance of ``n_k / N``.

The K=3 instance runs a second time at alpha = 0.02, where the chain
needs far more sweeps to mix, with its own wrong-target companion.

Training has its own five-token instance (the last section): plain CGS
matches the posterior there, and culda sits at the exact distance its
chunk-snapshot update puts it from the posterior.
"""

from __future__ import annotations

import itertools
from math import lgamma, log

import numpy as np
import pytest

from repro.api import create_trainer
from repro.corpus.document import Corpus
from repro.model import InferenceSession, TopicModel
from repro.model.inference import _BLOCK

_V, _ALPHA, _BETA = 4, 0.3, 0.01
_K, _N = 3, 5
_DOC = np.array([0, 1, 2, 3, 1], dtype=np.int64)
_WIDE_K = 20
_WIDE_DOC = np.array([1, 2, 3], dtype=np.int64)
_CHAINS = 20_000
_SWEEPS = 20


def _model(k: int, alpha: float = _ALPHA) -> TopicModel:
    # p* rows drawn from Dirichlet(0.5), carried by integer counts.
    rng = np.random.default_rng(2024)
    phi = np.rint(rng.dirichlet(np.full(_V, 0.5), size=k) * 1000)
    return TopicModel(phi.astype(np.int64), phi.sum(axis=1).astype(np.int64),
                      alpha, _BETA)


def _exact_counts_posterior(p_star: np.ndarray, alpha: float, doc) -> dict:
    """Posterior over topic-count vectors, from all K^N assignments."""
    k = p_star.shape[0]
    post: dict[tuple[int, ...], float] = {}
    for z in itertools.product(range(k), repeat=len(doc)):
        n = tuple(np.bincount(z, minlength=k).tolist())
        lp = sum(lgamma(alpha + c) for c in n)
        lp += sum(log(p_star[t, w]) for t, w in zip(z, doc))
        post[n] = post.get(n, 0.0) + np.exp(lp)
    total = sum(post.values())
    return {n: p / total for n, p in post.items()}


def _final_counts(model: TopicModel, doc, sweeps: int = _SWEEPS) -> np.ndarray:
    """Final topic counts of ``_CHAINS`` independent chains, ``(M, K)``."""
    k, n, alpha = model.num_topics, len(doc), model.alpha
    session = InferenceSession(model, num_sweeps=sweeps, burn_in=sweeps - 1)
    theta = session.transform([doc] * _CHAINS, seed=1)
    counts = np.rint(theta * (n + k * alpha) - alpha).astype(np.int64)
    assert np.all(counts.sum(axis=1) == n)
    return counts


def _tv(counts: dict, target: dict, m: int) -> float:
    return 0.5 * sum(abs(counts.get(n, 0) / m - p) for n, p in target.items())


def _mc_slack(m: int) -> float:
    return np.sqrt(np.log(1e6) / (2 * m))


def _bound(target: dict, m: int) -> float:
    mc_mean = sum(np.sqrt(p * (1 - p) / (2 * np.pi * m)) for p in target.values())
    return mc_mean + _mc_slack(m)


@pytest.fixture(scope="module")
def model() -> TopicModel:
    return _model(_K)


def _histogram(counts: np.ndarray) -> dict:
    hist: dict[tuple[int, ...], int] = {}
    for row in map(tuple, counts.tolist()):
        hist[row] = hist.get(row, 0) + 1
    return hist


@pytest.fixture(scope="module")
def final_counts(model) -> dict:
    return _histogram(_final_counts(model, _DOC))


def test_fold_in_matches_exact_posterior(model, final_counts):
    target = _exact_counts_posterior(model.word_given_topic(), _ALPHA, _DOC)
    assert len(target) == 21  # compositions of 5 into 3 parts
    assert set(final_counts) <= set(target)
    assert _tv(final_counts, target, _CHAINS) < _bound(target, _CHAINS)


def test_rejects_a_wrong_target(model, final_counts):
    p_star = model.word_given_topic()
    target = _exact_counts_posterior(p_star, _ALPHA, _DOC)
    wrong = _exact_counts_posterior(p_star, 0.4, _DOC)
    assert 0.5 * sum(abs(wrong[n] - target[n]) for n in target) < 0.07
    assert _tv(final_counts, wrong, _CHAINS) > _bound(wrong, _CHAINS)


# ---------------------------------------------------------------------------
# Across blocks: K=20, N=3, the per-token marginal.


def _occupancy(post: dict) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of ``n / N`` under a count posterior."""
    keys = np.array(list(post), dtype=np.float64)
    keys /= keys[0].sum()
    p = np.array(list(post.values()))
    mean = p @ keys
    return mean, p @ (keys * keys) - mean * mean


def _occupancy_tv(counts: np.ndarray, mean: np.ndarray) -> float:
    observed = counts.sum(axis=0) / counts.sum()
    return 0.5 * float(np.abs(observed - mean).sum())


def _occupancy_bound(var: np.ndarray, m: int) -> float:
    return float(np.sqrt(var / m).sum() / np.sqrt(2 * np.pi)) + _mc_slack(m)


@pytest.fixture(scope="module")
def wide_model() -> TopicModel:
    return _model(_WIDE_K)


@pytest.fixture(scope="module")
def wide_counts(wide_model) -> np.ndarray:
    return _final_counts(wide_model, _WIDE_DOC)


def test_instance_spans_blocks(wide_model):
    """The second block holds a good share of the posterior mass."""
    assert _BLOCK < _WIDE_K < 2 * _BLOCK
    post = _exact_counts_posterior(
        wide_model.word_given_topic(), _ALPHA, _WIDE_DOC
    )
    mean, _ = _occupancy(post)
    assert mean[_BLOCK:].sum() > 0.2


def test_occupancy_across_blocks_matches_exact(wide_model, wide_counts):
    post = _exact_counts_posterior(
        wide_model.word_given_topic(), _ALPHA, _WIDE_DOC
    )
    assert len(post) == 1540  # compositions of 3 into 20 parts
    mean, var = _occupancy(post)
    assert _occupancy_tv(wide_counts, mean) < _occupancy_bound(var, _CHAINS)


def test_occupancy_rejects_a_wrong_target(wide_model, wide_counts):
    p_star = wide_model.word_given_topic()
    mean, _ = _occupancy(_exact_counts_posterior(p_star, _ALPHA, _WIDE_DOC))
    wrong, var = _occupancy(_exact_counts_posterior(p_star, 0.1, _WIDE_DOC))
    assert 0.5 * np.abs(wrong - mean).sum() < 0.06
    assert _occupancy_tv(wide_counts, wrong) > _occupancy_bound(var, _CHAINS)


# ---------------------------------------------------------------------------
# Small alpha: serve models use alpha = 50/K, 0.195 at K=256 and less at
# larger K.  At alpha = 0.02 the chain mixes slowly: on the K=3
# instance its TV to the posterior read 0.065 after 20 sweeps, 0.043
# after 50, 0.019 after 100 and 0.014 after 200.  The chain is not
# biased, so this case runs long enough to mix, under the same bound.

_SMALL_ALPHA = 0.02
_SMALL_ALPHA_SWEEPS = 200


@pytest.fixture(scope="module")
def small_alpha_model() -> TopicModel:
    return _model(_K, _SMALL_ALPHA)


@pytest.fixture(scope="module")
def small_alpha_counts(small_alpha_model) -> dict:
    return _histogram(
        _final_counts(small_alpha_model, _DOC, _SMALL_ALPHA_SWEEPS)
    )


def test_small_alpha_matches_exact_posterior(small_alpha_model, small_alpha_counts):
    target = _exact_counts_posterior(
        small_alpha_model.word_given_topic(), _SMALL_ALPHA, _DOC
    )
    assert set(small_alpha_counts) <= set(target)
    assert _tv(small_alpha_counts, target, _CHAINS) < _bound(target, _CHAINS)


def test_small_alpha_rejects_a_wrong_target(small_alpha_model, small_alpha_counts):
    """At alpha = 0.02 a step of 0.005 in alpha is already 0.057 in TV."""
    p_star = small_alpha_model.word_given_topic()
    target = _exact_counts_posterior(p_star, _SMALL_ALPHA, _DOC)
    wrong = _exact_counts_posterior(p_star, 0.025, _DOC)
    assert 0.5 * sum(abs(wrong[n] - target[n]) for n in target) < 0.07
    assert _tv(small_alpha_counts, wrong, _CHAINS) > _bound(wrong, _CHAINS)


# ---------------------------------------------------------------------------
# Training.  docs [[0, 1, 2], [2, 0]], V=3, K=2, alpha = beta = 0.5: the
# 2^5 assignments of the five tokens are enumerated outright.  The
# statistic is phi's counts with their rows sorted, which relabelling
# the two topics leaves alone.  Each trainer runs one chain through the
# registry, one sample per iteration.  Successive samples are
# correlated, so the bound above takes M / tau effective samples, tau
# being the largest integrated autocorrelation time of a statistic
# value's indicator under the chain's exact transition matrix.

_TRAIN_DOCS = [[0, 1, 2], [2, 0]]
_TRAIN_K, _TRAIN_V, _TRAIN_PRIOR = 2, 3, 0.5
_TRAIN_SAMPLES = 6000
_TOKENS = [(d, w) for d, doc in enumerate(_TRAIN_DOCS) for w in doc]
_STATES = list(itertools.product(range(_TRAIN_K), repeat=len(_TOKENS)))


def _train_counts(z) -> tuple[np.ndarray, np.ndarray]:
    """The (theta, phi) counts of one assignment of the tokens."""
    theta = np.zeros((len(_TRAIN_DOCS), _TRAIN_K), dtype=np.int64)
    phi = np.zeros((_TRAIN_K, _TRAIN_V), dtype=np.int64)
    for (d, w), k in zip(_TOKENS, z):
        theta[d, k] += 1
        phi[k, w] += 1
    return theta, phi


def _phi_key(phi) -> tuple:
    return tuple(sorted(map(tuple, np.asarray(phi).tolist())))


_KEYS = [_phi_key(_train_counts(z)[1]) for z in _STATES]


def _conditionals(z) -> np.ndarray:
    """Each token's CGS conditional (Eq. 1, own count excluded), (N, K)."""
    theta, phi = _train_counts(z)
    prior = _TRAIN_PRIOR
    out = np.empty((len(_TOKENS), _TRAIN_K))
    for i, ((d, w), k) in enumerate(zip(_TOKENS, z)):
        own = np.arange(_TRAIN_K) == k
        q = (theta[d] - own + prior) * (phi[:, w] - own + prior)
        q /= phi.sum(axis=1) - own + _TRAIN_V * prior
        out[i] = q / q.sum()
    return out


def _kernels() -> tuple[np.ndarray, np.ndarray]:
    """Exact transition matrices over the assignments: plain CGS's scan
    in token order, and culda's chunk-snapshot update (one chunk), which
    draws every token from its conditional at the iteration-start counts."""
    s, n = len(_STATES), len(_TOKENS)
    index = {z: i for i, z in enumerate(_STATES)}
    conds = [_conditionals(z) for z in _STATES]
    snapshot = np.array(
        [[np.prod(c[np.arange(n), z]) for z in _STATES] for c in conds]
    )
    scan = np.eye(s)
    for t in range(n):
        step = np.zeros((s, s))
        for i, z in enumerate(_STATES):
            for k in range(_TRAIN_K):
                step[i, index[z[:t] + (k,) + z[t + 1:]]] = conds[i][t, k]
        scan = scan @ step
    return scan, snapshot


def _train_posterior() -> np.ndarray:
    """p(z | w) for every assignment, from the collapsed joint."""
    prior = _TRAIN_PRIOR
    logp = []
    for z in _STATES:
        theta, phi = _train_counts(z)
        lp = sum(lgamma(prior + c) for c in theta.ravel())
        lp += sum(lgamma(prior + c) for c in phi.ravel())
        lp -= sum(lgamma(_TRAIN_V * prior + c) for c in phi.sum(axis=1))
        logp.append(lp)
    p = np.exp(np.array(logp) - max(logp))
    return p / p.sum()


def _law(weights: np.ndarray) -> dict:
    law: dict[tuple, float] = {}
    for key, p in zip(_KEYS, weights):
        law[key] = law.get(key, 0.0) + float(p)
    return law


def _tau(kernel: np.ndarray, pi: np.ndarray) -> float:
    """Largest integrated autocorrelation time of a statistic value's
    indicator, from the fundamental matrix ``(I - P + 1 pi)^-1``."""
    fundamental = np.linalg.inv(np.eye(len(pi)) - kernel + pi)
    worst = 1.0
    for key in set(_KEYS):
        f = np.array([k == key for k in _KEYS], dtype=np.float64)
        f -= pi @ f
        var = pi @ (f * f)
        worst = max(worst, (2 * pi @ (f * (fundamental @ f)) - var) / var)
    return worst


@pytest.fixture(scope="module")
def train_laws() -> dict:
    scan, snapshot = _kernels()
    post = _train_posterior()
    stationary = np.linalg.matrix_power(snapshot, 256)[0]
    return {
        "posterior": _law(post), "snapshot": _law(stationary),
        "scan_is_exact": float(np.abs(post @ scan - post).max()),
        "tau": max(_tau(scan, post), _tau(snapshot, stationary)),
    }


def _chain_histogram(algo: str) -> dict:
    corpus = Corpus.from_token_lists(_TRAIN_DOCS, num_words=_TRAIN_V)
    trainer = create_trainer(
        algo, corpus, topics=_TRAIN_K, alpha=_TRAIN_PRIOR,
        beta=_TRAIN_PRIOR, seed=1,
    )
    trainer.partial_fit(20, compute_likelihood=False)  # burn-in
    hist: dict[tuple, int] = {}
    for _ in range(_TRAIN_SAMPLES):
        trainer.partial_fit(1, compute_likelihood=False)
        key = _phi_key(trainer.state.phi)
        hist[key] = hist.get(key, 0) + 1
    return hist


def test_snapshot_update_band_is_exact(train_laws):
    """culda's documented band, 0.24, is the TV between the posterior and
    the stationary law of its chunk-snapshot update: a Jacobi sweep,
    where every token sees the others' counts from the iteration start."""
    assert train_laws["scan_is_exact"] < 1e-12  # the kernels' self-check
    band = _tv(train_laws["snapshot"], train_laws["posterior"], 1)
    assert 0.23 < band < 0.245
    assert train_laws["tau"] < 2


def test_plain_cgs_matches_exact_posterior(train_laws):
    """The noise floor: the exact sampler at the same sample count."""
    post = train_laws["posterior"]
    m = _TRAIN_SAMPLES
    hist = _chain_histogram("plain_cgs")
    assert set(hist) <= set(post)
    assert _tv(hist, post, m) < _bound(post, m / train_laws["tau"])


def test_culda_sits_in_its_snapshot_band(train_laws):
    post, snap = train_laws["posterior"], train_laws["snapshot"]
    m, m_eff = _TRAIN_SAMPLES, _TRAIN_SAMPLES / train_laws["tau"]
    hist = _chain_histogram("culda")
    assert set(hist) <= set(post)
    assert _tv(hist, snap, m) < _bound(snap, m_eff)
    band = _tv(snap, post, 1)
    assert abs(_tv(hist, post, m) - band) < _bound(snap, m_eff)
    # the bound tells culda's law from the posterior
    assert _tv(hist, post, m) > _bound(post, m_eff)
