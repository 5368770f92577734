"""Sequential fold-in: the reference chain the served session must equal.

One document at a time, one sweep at a time, with the draws taken from
document d's stream ``SeedSequence(seed).spawn(D)[d]`` in the order the
session keeps: one ``integers`` init, then one ``standard_gamma(K)`` and
one ``random(n)`` per sweep.  ``InferenceSession.transform`` must return
these mixtures bit for bit, whatever its batch size, tiling or worker
count.  The chain itself is checked against the enumerated posterior in
tests/test_exact_posterior.py.
"""

from __future__ import annotations

import numpy as np

from repro.corpus.document import Corpus


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
        counts = np.bincount(rng.integers(0, k, size=w.size), minlength=k)
        acc = np.zeros(k, dtype=np.float64)
        rows = p_star[:, w].T  # (n, K), reused every sweep
        for sweep in range(num_sweeps):
            theta = rng.standard_gamma(alpha + counts)
            u = rng.random(w.size)
            cdf = np.cumsum(rows * theta, axis=1)
            # Count of cdf[:K-1] <= u * total: the draw needs no clamp.
            z = (cdf[:, :-1] <= (u * cdf[:, -1])[:, None]).sum(axis=1)
            counts = np.bincount(z, minlength=k)
            if sweep >= burn_in:
                acc += counts
        mix = acc + alpha * (num_sweeps - burn_in)
        out[d] = mix / mix.sum()
    return out
