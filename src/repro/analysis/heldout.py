"""Held-out evaluation: document-completion perplexity.

Training likelihood (Figure 8) can reward overfitting; the standard
held-out protocol for LDA is **document completion**: split each test
document into an observed half and a held-out half, fold in a topic
mixture on the observed half (phi frozen), then score the held-out half
under that mixture.  Reported as per-token log predictive probability
and its perplexity.

Inference runs on the batched :class:`~repro.model.InferenceSession`
(many documents per sweep); :func:`document_completion` accepts a
:class:`~repro.model.TopicModel` or a ready session.
"""

from __future__ import annotations

import numpy as np

from repro.corpus.document import Corpus
from repro.model import InferenceSession, ScoreResult, TopicModel


def split_documents(
    corpus: Corpus, observed_fraction: float = 0.5, seed: int = 0
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Random per-document token split into (observed, held-out) halves.

    Documents with fewer than 2 tokens are skipped (nothing to score).
    """
    if not (0 < observed_fraction < 1):
        raise ValueError("observed_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    observed, heldout = [], []
    for d in range(corpus.num_docs):
        w = corpus.document(d).word_ids
        if w.shape[0] < 2:
            continue
        perm = rng.permutation(w.shape[0])
        cut = max(1, min(w.shape[0] - 1, int(round(observed_fraction * w.shape[0]))))
        observed.append(w[perm[:cut]])
        heldout.append(w[perm[cut:]])
    return observed, heldout


def document_completion(
    model: TopicModel | InferenceSession,
    corpus: Corpus,
    observed_fraction: float = 0.5,
    num_sweeps: int | None = None,
    burn_in: int | None = None,
    seed: int = 0,
) -> ScoreResult:
    """Document-completion evaluation of a trained model on ``corpus``.

    ``corpus`` should be *test* documents (not used in training); using
    training documents measures memorisation instead of generalisation.
    The observed halves fold in as one batched pass; each document's
    draws use its own seeded stream, so results do not depend on batch
    size.

    ``num_sweeps``/``burn_in`` default to the session's own schedule
    when ``model`` is an :class:`InferenceSession` (they override it
    when given), and to 25/10 otherwise.
    """
    if isinstance(model, InferenceSession):
        session = model
        num_sweeps = model.num_sweeps if num_sweeps is None else num_sweeps
        burn_in = model.burn_in if burn_in is None else burn_in
    elif isinstance(model, TopicModel):
        num_sweeps = 25 if num_sweeps is None else num_sweeps
        burn_in = 10 if burn_in is None else burn_in
        session = InferenceSession(model, num_sweeps=num_sweeps, burn_in=burn_in)
    else:
        raise TypeError(
            f"expected TopicModel or InferenceSession, got {type(model).__name__}"
        )
    observed, heldout = split_documents(corpus, observed_fraction, seed)
    if not observed:
        raise ValueError("no documents with >= 2 tokens to evaluate")
    mixtures = session.transform(
        observed, seed=seed + 1, num_sweeps=num_sweeps, burn_in=burn_in
    )
    # Held-out halves are never empty, so every document is scored.
    return session.score(heldout, theta=mixtures)
