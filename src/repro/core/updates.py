"""Model update kernels (Section 6.2).

After sampling a chunk, two kernels bring the device replicas back in
sync with the new assignments:

- **update-phi**: phi is dense, so the update is a pair of data-local
  atomic adds per changed token (decrement the old topic's count,
  increment the new one).  The word-first token order gives the atomics
  the locality the paper relies on ("atomic functions that have good data
  locality show good performance").  The vectorised equivalent
  histograms all changed tokens into one signed dense delta.
- **update-theta**: theta is CSR and cannot be atomically updated in
  place.  The paper scatters each document's topics into a dense row
  (using the precomputed document-word map), then compacts the dense row
  back to CSR with a prefix sum.  The vectorised equivalent is a keyed
  histogram + CSR rebuild (:meth:`repro.core.model.ChunkState.rebuild_theta`).

Updating phi *first* lets the multi-GPU phi synchronization start while
theta updates are still running — the scheduler exploits that ordering.
"""

from __future__ import annotations

import numpy as np


def apply_phi_update(
    phi: np.ndarray,
    topic_totals: np.ndarray,
    words: np.ndarray,
    z_old: np.ndarray,
    z_new: np.ndarray,
    accum_phi: np.ndarray | None = None,
    accum_totals: np.ndarray | None = None,
) -> int:
    """In-place phi/topic_totals update; returns the changed-token count.

    Only tokens whose topic actually changed contribute (an unchanged
    token's decrement and increment cancel).  Their flat ``(topic, word)``
    keys are histogrammed one side at a time: ``bincount(new)`` is added
    to phi and freed, then ``bincount(old)`` is subtracted, so one dense
    K x V histogram is live at a time — integer arithmetic, so the result
    is identical to per-token decrements and increments.

    ``accum_phi``/``accum_totals``, when given, receive the *same* signed
    update a second time — the pre-reduced per-worker delta of the
    Section 6.2 sync path: a worker folds every chunk's updates into one
    accumulator so the master's merge is one add per worker instead of
    one subtract-and-add per device replica.  Each histogram is computed
    once and shared between the two targets.
    """
    if not (words.shape == z_old.shape == z_new.shape):
        raise ValueError("words/z_old/z_new must have identical shapes")
    changed = np.flatnonzero(z_old != z_new)
    if changed.shape[0] == 0:
        return 0
    k, num_words = phi.shape
    w = words.take(changed).astype(np.int64)
    for topics, sign in ((z_new, np.add), (z_old, np.subtract)):
        z = topics.take(changed).astype(np.int64)
        per_topic = np.bincount(z, minlength=k)
        np.multiply(z, num_words, out=z)
        np.add(z, w, out=z)
        hist = np.bincount(z, minlength=k * num_words).reshape(k, num_words)
        sign(phi, hist, out=phi, casting="same_kind")
        sign(topic_totals, per_topic, out=topic_totals, casting="same_kind")
        if accum_phi is not None:
            sign(accum_phi, hist, out=accum_phi, casting="same_kind")
        if accum_totals is not None:
            sign(accum_totals, per_topic, out=accum_totals, casting="same_kind")
        del hist
    return int(changed.shape[0])


def verify_phi_consistency(
    phi: np.ndarray,
    topic_totals: np.ndarray,
    expected_tokens: int | None = None,
) -> None:
    """Raise if phi has negative counts or totals are out of sync.

    Called by tests and (cheaply) by the trainer in debug mode after
    every synchronization — a negative count means an update was applied
    twice or a sync reconciled incorrectly.
    """
    if np.any(phi < 0):
        bad = np.argwhere(phi < 0)[0]
        raise AssertionError(
            f"negative phi count at (topic={bad[0]}, word={bad[1]})"
        )
    actual = phi.sum(axis=1, dtype=np.int64)
    if not np.array_equal(actual, topic_totals.astype(np.int64)):
        raise AssertionError("topic_totals inconsistent with phi")
    if expected_tokens is not None:
        total = int(actual.sum())
        if total != expected_tokens:
            raise AssertionError(
                f"phi accounts for {total} tokens, expected {expected_tokens}"
            )
