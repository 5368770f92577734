"""Fold-in inference: topic mixtures for documents unseen at training.

The trained artifact is the topic-word matrix phi; downstream use
(search, recommendation, the "online service" scenario of the paper's
abstract) needs theta for *new* documents.  The estimator is fold-in
Gibbs sampling with phi held fixed, which lets the document's mixture
be sampled explicitly; each sweep alternates

    theta_d ~ Dirichlet(alpha + n_d)
    z_i     ~ theta_d[k] * (phi[k, v_i] + beta) / (N_k + beta * V)

and the z-marginal of this chain is the exact fold-in posterior.  The
topic counts n_d are averaged over the last sweeps.  Because phi is
frozen, each document folds in independently — embarrassingly parallel,
exactly the workload CuLDA's per-warp samplers would run in deployment.
"""

from __future__ import annotations

import numpy as np

from repro.corpus.document import Corpus
from repro.core.model import LdaState


class FoldInSampler:
    """Infers topic mixtures for new documents against a frozen model.

    Parameters
    ----------
    phi / topic_totals:
        The trained topic-word counts and their row sums.
    alpha, beta:
        Hyper-parameters (use the training values).
    """

    def __init__(
        self,
        phi: np.ndarray,
        topic_totals: np.ndarray,
        alpha: float,
        beta: float,
    ):
        if phi.ndim != 2:
            raise ValueError("phi must be 2-D (K x V)")
        if topic_totals.shape != (phi.shape[0],):
            raise ValueError("topic_totals must have length K")
        if alpha <= 0 or beta <= 0:
            raise ValueError("hyper-parameters must be positive")
        if np.any(phi < 0):
            raise ValueError("phi must be non-negative")
        self.phi = phi.astype(np.float64)
        self.alpha = alpha
        self.beta = beta
        self.num_topics, self.num_words = phi.shape
        # phi never changes during fold-in: precompute p*(k, v) once.
        denom = topic_totals.astype(np.float64) + beta * self.num_words
        self._p_star = (self.phi + beta) / denom[:, None]

    @classmethod
    def from_state(cls, state: LdaState) -> FoldInSampler:
        """Build from a trained :class:`LdaState`."""
        return cls(state.phi, state.topic_totals, state.alpha, state.beta)

    def infer_document(
        self,
        word_ids: np.ndarray,
        num_sweeps: int = 30,
        burn_in: int = 10,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Posterior mean topic mixture of one document.

        Runs ``num_sweeps`` theta-explicit Gibbs sweeps (phi frozen),
        averaging the topic counts over the post-burn-in sweeps.
        Returns a length-K probability vector.
        """
        if num_sweeps <= burn_in:
            raise ValueError("num_sweeps must exceed burn_in")
        w = np.asarray(word_ids, dtype=np.int64)
        if w.size == 0:
            # No evidence: the prior mean.
            return np.full(self.num_topics, 1.0 / self.num_topics)
        if w.min() < 0 or w.max() >= self.num_words:
            raise ValueError("word id out of the trained vocabulary")
        rng = rng or np.random.default_rng(0)
        k = self.num_topics
        z = rng.integers(0, k, size=w.size)
        counts = np.bincount(z, minlength=k)
        acc = np.zeros(k, dtype=np.float64)
        p_star_rows = self._p_star[:, w].T  # L x K gather, reused all sweeps
        for sweep in range(num_sweeps):
            theta = rng.standard_gamma(self.alpha + counts)
            u = rng.random(w.size)
            cdf = np.cumsum(p_star_rows * theta, axis=1)
            # Count of cdf[:K-1] <= u * total: the draw needs no clamp.
            z = (cdf[:, :-1] <= (u * cdf[:, -1])[:, None]).sum(axis=1)
            counts = np.bincount(z, minlength=k)
            if sweep >= burn_in:
                acc += counts
        mix = acc + self.alpha * (num_sweeps - burn_in)
        return mix / mix.sum()

    def infer_corpus(
        self,
        corpus: Corpus,
        num_sweeps: int = 30,
        burn_in: int = 10,
        seed: int = 0,
    ) -> np.ndarray:
        """Topic mixtures for every document of ``corpus`` (D x K)."""
        if corpus.num_words > self.num_words:
            raise ValueError(
                f"corpus vocabulary ({corpus.num_words}) exceeds the "
                f"trained vocabulary ({self.num_words})"
            )
        out = np.empty((corpus.num_docs, self.num_topics), dtype=np.float64)
        root = np.random.SeedSequence(seed)
        seeds = root.spawn(corpus.num_docs)
        for d in range(corpus.num_docs):
            out[d] = self.infer_document(
                corpus.document(d).word_ids,
                num_sweeps=num_sweeps,
                burn_in=burn_in,
                rng=np.random.default_rng(seeds[d]),
            )
        return out

    def log_predictive(
        self, word_ids: np.ndarray, mixture: np.ndarray
    ) -> float:
        """Mean log p(w | mixture, phi) of a token sequence.

        Used by held-out evaluation: score the second half of a document
        under the mixture inferred from the first half.
        """
        w = np.asarray(word_ids, dtype=np.int64)
        if w.size == 0:
            raise ValueError("cannot score an empty token sequence")
        if mixture.shape != (self.num_topics,):
            raise ValueError("mixture must be a length-K vector")
        if not np.isclose(mixture.sum(), 1.0, atol=1e-6) or np.any(mixture < 0):
            raise ValueError("mixture must be a probability vector")
        token_probs = mixture @ self._p_star[:, w]
        return float(np.log(np.maximum(token_probs, 1e-300)).mean())
