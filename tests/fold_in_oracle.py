"""Sequential fold-in: the reference chain the served session must equal.

One document at a time, one sweep at a time, with the draws taken from
document d's stream ``SeedSequence(seed).spawn(D)[d]`` in the order the
session keeps: one ``integers`` init, then, for each block of
``b = min(_SWEEP_BLOCK, sweeps left)`` sweeps, one
``standard_gamma(alpha, (b, K))``, one ``standard_exponential((b, n))``
and one ``random((b, n))``.  ``_SWEEP_BLOCK`` is a constant, so this
order depends on the document and the schedule only, never on which
documents share a batch.  Each sweep's theta is ``Gamma(alpha + n_k)``
written as Gamma(alpha) plus the n_k exponentials of the tokens in topic
k, summed in token order.  Each token's topic comes from the
two-level inverse-CDF draw of ``two_level_draw``, written with plain
``cumsum`` and fancy indexing rather than the session's buffers.
``InferenceSession.transform`` must return these mixtures bit for bit,
whatever its batch size, tiling or worker count.  The chain itself is
checked against the enumerated posterior in
tests/test_exact_posterior.py, and the draw against exact arithmetic in
tests/test_inference_session.py.
"""

from __future__ import annotations

import numpy as np

from repro.corpus.document import Corpus
from repro.model.inference import _BLOCK, _SWEEP_BLOCK


def two_level_draw(weights, u):
    """Topic of each row of ``weights`` (n, K) at target ``u * total``.

    Topics form blocks of ``B = min(_BLOCK, K)``, the last one zero
    padded.  Block totals are in-block sums left to right; the block is
    the first whose running total exceeds the target, and the topic the
    first in that block whose in-block prefix sum exceeds what is left.
    Both targets stay strictly below the total they split.
    """
    n, k = weights.shape
    b = min(_BLOCK, k)
    nb = -(-k // b)
    padded = np.zeros((n, nb * b))
    padded[:, :k] = weights
    inner = np.cumsum(padded.reshape(n, nb, b), axis=2)
    block_total = inner[..., -1]
    running = np.cumsum(block_total, axis=1)
    total = running[:, -1]
    x = np.minimum(u * total, np.nextafter(total, 0.0))
    j = (running[:, :-1] <= x[:, None]).sum(axis=1)
    ar = np.arange(n)
    before = np.where(j > 0, running[ar, j - 1], 0.0)
    rest = np.minimum(x - before, np.nextafter(block_total[ar, j], 0.0))
    return j * b + (inner[ar, j, :-1] <= rest[:, None]).sum(axis=1)


def fold_in(model, docs, num_sweeps, burn_in, seed):
    """Posterior-mean topic mixtures of ``docs`` (``float64[D, K]``).

    ``model`` is a :class:`~repro.model.TopicModel`; p* is rebuilt here
    from its raw counts, not taken from the session under test.
    """
    if isinstance(docs, Corpus):
        docs = [docs.document(d).word_ids for d in range(docs.num_docs)]
    k, v = model.phi.shape
    alpha = model.alpha
    denom = model.topic_totals.astype(np.float64) + model.beta * v
    p_star = (model.phi.astype(np.float64) + model.beta) / denom[:, None]
    streams = np.random.SeedSequence(seed).spawn(len(docs))
    out = np.empty((len(docs), k), dtype=np.float64)
    for d, (doc, ss) in enumerate(zip(docs, streams)):
        w = np.asarray(doc, dtype=np.int64)
        if w.size == 0:
            out[d] = 1.0 / k  # no evidence: the prior mean
            continue
        rng = np.random.default_rng(ss)
        z = rng.integers(0, k, size=w.size)
        acc = np.zeros(k, dtype=np.float64)
        rows = p_star[:, w].T  # (n, K), reused every sweep
        for sweep in range(num_sweeps):
            j = sweep % _SWEEP_BLOCK
            if j == 0:
                block = min(_SWEEP_BLOCK, num_sweeps - sweep)
                gammas = rng.standard_gamma(alpha, size=(block, k))
                exps = rng.standard_exponential((block, w.size))
                uniforms = rng.random((block, w.size))
            # Gamma(alpha + n_k) as Gamma(alpha) plus n_k draws of Exp(1).
            theta = gammas[j] + np.bincount(z, weights=exps[j], minlength=k)
            z = two_level_draw(rows * theta, uniforms[j])
            if sweep >= burn_in:
                acc += np.bincount(z, minlength=k)
        mix = acc + alpha * (num_sweeps - burn_in)
        out[d] = mix / mix.sum()
    return out
