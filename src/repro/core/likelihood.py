"""Model quality metric: joint log-likelihood per token (Figure 8).

The standard collapsed-LDA joint likelihood of the assignments:

    log p(w, z) = log p(w | z) + log p(z)

    log p(w|z) = K [ lnG(V*beta) - V lnG(beta) ]
               + sum_k [ sum_v lnG(phi[k,v] + beta) - lnG(N_k + V*beta) ]

    log p(z)   = D [ lnG(K*alpha) - K lnG(alpha) ]
               + sum_d [ sum_k lnG(theta[d,k] + alpha) - lnG(L_d + K*alpha) ]

where ``lnG`` is the log-gamma function, ``N_k`` the topic totals and
``L_d`` the document lengths.  The paper plots this quantity divided by
the token count against elapsed (here: simulated) time.

Computed sparsely: zero entries of phi/theta contribute ``lnG(beta)`` /
``lnG(alpha)`` which fold into closed-form constants, so cost is
O(nnz(phi) + nnz(theta)), not O(KV + DK).

``lnG`` over the counts is served from a cached lookup table
(:func:`repro.perf.lngamma_table`): counts are small integers, so the
whole pass is integer binning/gathers plus one table read per *distinct*
count value — no per-element transcendental evaluation.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from repro.core.model import LdaState
from repro.perf import counts_of_counts_lngamma, lngamma_table


class NumericalError(ArithmeticError):
    """A likelihood evaluation produced NaN/inf.

    A non-finite LL/token means the chain's counts are broken (overflow,
    corrupted state, a kernel bug) — silently propagating ``nan`` would
    poison every comparison made against it (a convergence check never
    sees it improve) and get persisted into checkpoints.  Raised by
    :func:`ensure_finite`, naming the iteration when the caller knows it.
    """

    def __init__(self, value: float, iteration: int | None = None):
        where = f" at iteration {iteration}" if iteration is not None else ""
        super().__init__(
            f"non-finite log-likelihood ({value!r}){where}: the model "
            f"state is numerically broken"
        )
        self.value = value
        self.iteration = iteration


def ensure_finite(value: float, *, iteration: int | None = None) -> float:
    """Pass ``value`` through, raising :class:`NumericalError` on NaN/inf.

    The guard every LL producer wraps its result in before the number
    reaches records or checkpoints.
    """
    if not np.isfinite(value):
        raise NumericalError(float(value), iteration)
    return float(value)


def likelihood_due(iteration: int, every: int) -> bool:
    """The default LL cadence: every ``every``-th completed iteration.

    The single definition of the modulus rule — every trainer's loop
    calls this, so the ``want_ll`` a worker is dispatched with can never
    desynchronize from the record the master writes.
    """
    return bool(every) and (iteration + 1) % every == 0


def word_side_log_likelihood(
    phi: np.ndarray,
    topic_totals: np.ndarray,
    num_topics: int,
    num_words: int,
    beta: float,
) -> float:
    """``log p(w | z)``: the phi half of the joint likelihood.

    phi is dense int, but only non-zeros differ from the lnG(beta)
    baseline, which folds into the closed form:
    ``K lnG(V*beta) + sum_nz [lnG(val+beta) - lnG(beta)]
    - sum_k lnG(N_k + V*beta)``.
    """
    hist = np.bincount(phi.reshape(-1))
    word_side = float(num_topics * gammaln(num_words * beta))
    word_side += counts_of_counts_lngamma(hist, beta)
    word_side -= float(
        np.sum(gammaln(topic_totals.astype(np.float64) + num_words * beta))
    )
    return word_side


def chunk_doc_terms(
    theta_data: np.ndarray,
    doc_offsets: np.ndarray,
    num_topics: int,
    alpha: float,
) -> tuple[float, float]:
    """One chunk's document-side contribution as a ``(plus, minus)`` pair.

    ``plus`` is the theta-count term ``sum_nz [lnG(val+alpha) - lnG(alpha)]``,
    ``minus`` the length normaliser ``sum_d lnG(L_d + K*alpha)``.  Pure in
    the chunk's theta values and document lengths, so an execution worker
    can evaluate it from the shared state between barriers and the master
    reassembles the exact serial total with :func:`assemble_log_likelihood`.
    """
    vals = theta_data.astype(np.int64)
    table = lngamma_table(alpha, int(vals.max(initial=0)) + 1)
    plus = float(np.sum(table[vals] - table[0]))
    lens = np.diff(doc_offsets).astype(np.float64)
    minus = float(np.sum(gammaln(lens + num_topics * alpha)))
    return plus, minus


def assemble_log_likelihood(
    word_side: float,
    num_docs: int,
    num_topics: int,
    alpha: float,
    chunk_terms,
) -> float:
    """Combine the word side with per-chunk doc terms (serial-order adds).

    The accumulation replays exactly the float-op order of the single
    in-process loop — ``+= plus`` then ``-= minus`` per chunk, in chunk
    order — so a likelihood assembled from worker-computed terms is
    **bit-identical** to one computed on the master.
    """
    doc_side = float(num_docs * gammaln(num_topics * alpha))
    for plus, minus in chunk_terms:
        doc_side += plus
        doc_side -= minus
    return word_side + doc_side


def log_likelihood_from_terms(state: LdaState, chunk_terms) -> float:
    """Joint log p(w, z) with externally supplied document-side terms.

    ``chunk_terms`` must be the per-chunk ``(plus, minus)`` pairs of
    :func:`chunk_doc_terms` **in state-chunk order** — typically computed
    by the execution workers from the shared theta between barriers, so
    the master never scans theta.  Bit-identical to
    :func:`log_likelihood` on the same state.
    """
    word_side = word_side_log_likelihood(
        state.phi, state.topic_totals, state.num_topics, state.num_words,
        state.beta,
    )
    num_docs = sum(cs.chunk.num_local_docs for cs in state.chunks)
    return assemble_log_likelihood(
        word_side, num_docs, state.num_topics, state.alpha, chunk_terms
    )


def log_likelihood(state: LdaState) -> float:
    """Joint log p(w, z) of the current state."""
    word_side = word_side_log_likelihood(
        state.phi, state.topic_totals, state.num_topics, state.num_words,
        state.beta,
    )
    # --- document side: theta replicas are CSR (already nnz-only); the
    # cached table turns lnG(val + alpha) into a gather per entry.
    num_docs = sum(cs.chunk.num_local_docs for cs in state.chunks)
    terms = [
        chunk_doc_terms(
            cs.theta.data, cs.chunk.doc_offsets, state.num_topics, state.alpha
        )
        for cs in state.chunks
    ]
    return assemble_log_likelihood(
        word_side, num_docs, state.num_topics, state.alpha, terms
    )


def log_likelihood_per_token(state: LdaState) -> float:
    """The Figure 8 y-axis: joint log-likelihood divided by T."""
    t = state.num_tokens
    if t == 0:
        raise ValueError("cannot normalise likelihood of an empty corpus")
    return log_likelihood(state) / t


def perplexity(state: LdaState) -> float:
    """``exp(-LL/T)`` — a conventional alternative view of the same metric."""
    return float(np.exp(-log_likelihood_per_token(state)))
