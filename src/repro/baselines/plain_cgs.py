"""Exact sequential Collapsed Gibbs Sampling — the correctness oracle.

The textbook O(K)-per-token CGS of Section 2.1 (Eq. 1): walk the tokens
in order; for each, remove its count, compute the full dense conditional,
draw, and re-add.  No staleness, no decomposition, no approximation —
this is the distribution every optimized sampler must agree with, and the
reference the statistical tests compare against.

Intentionally simple and slow; use only on small corpora.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from repro.core.config import check_num_topics
from repro.core.trainer import IterationRecord, iteration_record
from repro.corpus.document import Corpus
from repro.perf import counts_of_counts_lngamma

#: Tokens per block when materialising per-token Python lists in the
#: sequential sweep — bounds transient memory at O(block), not O(T).
_SWEEP_BLOCK = 1 << 20


@dataclass
class PlainCgsModel:
    """Dense state of the exact sampler."""

    z: np.ndarray  # int64[T] topic per token (document-major corpus order)
    theta: np.ndarray  # int64[D, K]
    phi: np.ndarray  # int64[K, V]
    topic_totals: np.ndarray  # int64[K]
    alpha: float
    beta: float

    @property
    def num_topics(self) -> int:
        return int(self.theta.shape[1])

    def log_likelihood_per_token(self) -> float:
        """Joint log p(w, z) / T — same definition as the core metric.

        Count terms are evaluated through the cached ``lnG(n + offset)``
        tables (see :mod:`repro.perf.tables`): counts-of-counts binning
        replaces a ``gammaln`` call per non-zero entry.
        """
        k = self.num_topics
        v = self.phi.shape[1]
        a, b = self.alpha, self.beta
        word = float(k * gammaln(v * b))
        word += counts_of_counts_lngamma(np.bincount(self.phi.reshape(-1)), b)
        word -= float(np.sum(gammaln(self.topic_totals + v * b)))
        doc = float(self.theta.shape[0] * gammaln(k * a))
        doc += counts_of_counts_lngamma(np.bincount(self.theta.reshape(-1)), a)
        doc -= float(np.sum(gammaln(self.theta.sum(axis=1) + k * a)))
        return (word + doc) / self.z.shape[0]


class DenseStateTrainer:
    """The shared surface of the trainers on a dense :class:`PlainCgsModel`.

    Builds the random initial state (one uniform topic per token, counts
    scattered from it), keeps ``history`` and runs the ``train`` loop.
    Plain CGS and WarpLDA differ only in :meth:`_iterate`, which runs one
    iteration and returns its duration in seconds.
    """

    def __init__(
        self,
        corpus: Corpus,
        num_topics: int,
        alpha: float | None = None,
        beta: float | None = None,
        seed: int = 0,
    ):
        check_num_topics(num_topics)
        self.corpus = corpus
        self.k = num_topics
        self.alpha = alpha if alpha is not None else 50.0 / num_topics
        self.beta = beta if beta is not None else 0.01
        self.rng = np.random.default_rng(seed)
        self.doc_ids = corpus.token_doc_ids().astype(np.int64)
        self.word_ids = corpus.word_ids.astype(np.int64)
        z = self.rng.integers(0, num_topics, size=corpus.num_tokens)
        theta = np.zeros((corpus.num_docs, num_topics), dtype=np.int64)
        phi = np.zeros((num_topics, corpus.num_words), dtype=np.int64)
        np.add.at(theta, (self.doc_ids, z), 1)
        np.add.at(phi, (z, self.word_ids), 1)
        self.model = PlainCgsModel(
            z=z, theta=theta, phi=phi, topic_totals=phi.sum(axis=1),
            alpha=self.alpha, beta=self.beta,
        )
        self.history: list[IterationRecord] = []
        self._clock = 0.0

    @property
    def state(self) -> PlainCgsModel:
        return self.model

    def train(
        self, num_iterations: int, compute_likelihood_every: int = 1
    ) -> list[IterationRecord]:
        """Run iterations; returns the whole history."""
        if num_iterations < 0:
            raise ValueError("num_iterations must be non-negative")
        m = self.model
        doc_lengths = self.corpus.doc_lengths()
        for _ in range(num_iterations):
            z_before = m.z.copy()
            # theta as this iteration samples from it, like the chunked
            # trainers' per-token Kd
            sum_kd = int(np.count_nonzero(m.theta, axis=1) @ doc_lengths)
            seconds = self._iterate()
            self._clock += seconds
            self.history.append(
                iteration_record(
                    len(self.history), seconds, self._clock,
                    self.corpus.num_tokens,
                    likelihood=m.log_likelihood_per_token,
                    likelihood_every=compute_likelihood_every,
                    sum_kd=sum_kd,
                    changed_tokens=int(np.count_nonzero(m.z != z_before)),
                )
            )
        return self.history

    def describe(self) -> dict:
        """Identity and effective configuration (unified API contract)."""
        return {
            "description": self.DESCRIPTION,
            "num_topics": self.k,
            "alpha": self.alpha,
            "beta": self.beta,
        }

    def validate(self) -> None:
        """Invariant check: counts consistent with assignments."""
        m = self.model
        theta = np.zeros_like(m.theta)
        phi = np.zeros_like(m.phi)
        np.add.at(theta, (self.doc_ids, m.z), 1)
        np.add.at(phi, (m.z, self.word_ids), 1)
        if not (
            np.array_equal(theta, m.theta)
            and np.array_equal(phi, m.phi)
            and np.array_equal(phi.sum(axis=1), m.topic_totals)
        ):
            raise AssertionError(
                f"{type(self).__name__} counts out of sync with assignments"
            )


class PlainCgsSampler(DenseStateTrainer):
    """Exact sequential CGS trainer.

    Parameters mirror :class:`~repro.core.config.TrainerConfig` defaults
    (``alpha = 50/K``, ``beta = 0.01``).
    """

    DESCRIPTION = "Exact sequential collapsed Gibbs sampling (correctness oracle)"

    def _iterate(self) -> float:
        """One :meth:`sweep`, timed on the wall clock: plain CGS has no
        simulated clock."""
        t0 = time.perf_counter()  # repro: noqa[RPR103] no simulated clock
        self.sweep()
        t1 = time.perf_counter()  # repro: noqa[RPR103] no simulated clock
        return max(t1 - t0, 1e-9)

    def sweep(self) -> None:
        """One full CGS iteration: every token resampled, exactly.

        The loop is unavoidably sequential (each draw sees every earlier
        update), but its per-token invariants are hoisted: the token's
        randoms are pre-drawn in one batch (same stream as per-token
        draws), ``phi`` columns are walked through a contiguous ``(V, K)``
        transpose, the ``totals + beta*V`` denominator is maintained by
        two exact scalar writes instead of a K-vector rebuild, and the
        conditional/CDF buffers are reused across tokens.  Bit-identical
        to the historical per-token-allocating loop under a fixed seed
        (tests/test_golden_regression.py).
        """
        m = self.model
        k = self.k
        alpha, beta = self.alpha, self.beta
        beta_v = beta * self.corpus.num_words
        t = m.z.shape[0]
        # contiguous per-word columns; synced back to m.phi after the loop
        phi_t = np.ascontiguousarray(m.phi.T)
        theta = m.theta
        # scalar-only state lives in Python lists for the loop's duration
        # (scalar ndarray indexing is ~10x a list access); token-indexed
        # lists are materialised in bounded blocks so transient memory
        # stays O(block), not O(T).  Batched block draws consume the same
        # RNG stream as per-token scalar draws (bit-identical).
        totals = m.topic_totals.tolist()
        # denom[j] == totals[j] + beta_v, kept exact by scalar rewrites
        denom = np.add(m.topic_totals, beta_v, dtype=np.float64)
        p = np.empty(k, dtype=np.float64)
        tmp = np.empty(k, dtype=np.float64)
        cdf = np.empty(k, dtype=np.float64)
        for lo in range(0, t, _SWEEP_BLOCK):
            hi = min(lo + _SWEEP_BLOCK, t)
            u_all = self.rng.random(hi - lo).tolist()
            doc_ids = self.doc_ids[lo:hi].tolist()
            word_ids = self.word_ids[lo:hi].tolist()
            z = m.z[lo:hi].tolist()
            for i in range(hi - lo):
                d = doc_ids[i]
                v = word_ids[i]
                old = z[i]
                theta_d = theta[d]
                phi_col = phi_t[v]
                theta_d[old] -= 1
                phi_col[old] -= 1
                totals[old] -= 1
                denom[old] = totals[old] + beta_v
                np.add(theta_d, alpha, out=p)
                np.add(phi_col, beta, out=tmp)
                np.multiply(p, tmp, out=p)
                np.divide(p, denom, out=p)
                np.cumsum(p, out=cdf)
                new = int(np.searchsorted(cdf, u_all[i] * cdf[-1], side="right"))
                if new >= k:
                    new = k - 1
                z[i] = new
                theta_d[new] += 1
                phi_col[new] += 1
                totals[new] += 1
                denom[new] = totals[new] + beta_v
            m.z[lo:hi] = z
        m.phi[...] = phi_t.T
        m.topic_totals[...] = totals
