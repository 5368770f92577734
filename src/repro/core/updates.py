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
    token's decrement and increment cancel).  The changed tokens are
    histogrammed into one signed dense delta over the flattened
    ``(topic, word)`` grid, ``bincount(new) - bincount(old)``, which is
    added to phi in a single pass — integer arithmetic, so the result is
    identical to per-token decrements and increments.

    ``accum_phi``/``accum_totals``, when given, receive the *same* signed
    update a second time — the pre-reduced per-worker delta of the
    Section 6.2 sync path: a worker folds every chunk's updates into one
    accumulator so the master's merge is one add per worker instead of
    one subtract-and-add per device replica.  The delta is computed once
    and shared between the two targets.
    """
    if not (words.shape == z_old.shape == z_new.shape):
        raise ValueError("words/z_old/z_new must have identical shapes")
    zo = z_old.astype(np.int64)
    zn = z_new.astype(np.int64)
    changed = zo != zn
    if not np.any(changed):
        return 0
    w = words.astype(np.int64)[changed]
    zo = zo[changed]
    zn = zn[changed]
    k, num_words = phi.shape
    dec = np.bincount(zo, minlength=k)
    inc = np.bincount(zn, minlength=k)
    size = k * num_words
    delta = np.bincount(zn * num_words + w, minlength=size)
    delta -= np.bincount(zo * num_words + w, minlength=size)
    delta = delta.reshape(k, num_words)
    np.add(phi, delta, out=phi, casting="same_kind")
    topic_totals -= dec.astype(topic_totals.dtype)
    topic_totals += inc.astype(topic_totals.dtype)
    if accum_phi is not None:
        np.add(accum_phi, delta, out=accum_phi, casting="same_kind")
    if accum_totals is not None:
        accum_totals -= dec.astype(accum_totals.dtype)
        accum_totals += inc.astype(accum_totals.dtype)
    return int(changed.sum())


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
