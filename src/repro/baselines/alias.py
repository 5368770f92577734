"""Vose alias tables: O(1) categorical sampling after O(n) build.

Substrate for the WarpLDA-style Metropolis-Hastings baseline (word
proposals ``q(k) ~ phi[k,v] + beta`` are drawn from per-word alias tables
rebuilt once per iteration, as in the alias-method LDA lineage the paper
cites: LightLDA [35], WarpLDA [10]).
"""

from __future__ import annotations

import numpy as np


def build_alias_tables(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched Vose build: one alias table per **row** of ``weights``.

    Returns ``(prob, alias)`` arrays of shape ``(W, n)`` such that row
    ``w`` is **bit-identical** to the scalar Vose build of ``weights[w]``
    (the reference in tests/test_alias.py).  That holds because the
    scalar build is replayed exactly, just for all rows in lockstep:

    - per-row totals are pairwise sums over the contiguous last axis —
      the same reduction a 1-D ``w.sum()`` performs;
    - the small/large stacks start as ascending index lists and pop from
      the end, exactly like the scalar two-pointer loop;
    - each lockstep step performs the scalar loop's pop/assign/update
      for every still-active row at once, so the per-row sequence of
      (s, l) pairings — and therefore every float update — is identical.

    The Python-level work drops from O(W * n) list operations to at most
    ``n`` vectorised steps (a row pairs at most ``n - 1`` times), which
    is what makes per-iteration alias rebuilds affordable (LightLDA's
    O(1)-proposal precondition).
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] == 0:
        raise ValueError("weights must be a (W, n) array with n >= 1")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")
    if not w.flags.c_contiguous:
        w = np.ascontiguousarray(w)
    num_rows, n = w.shape
    totals = w.sum(axis=1)
    if np.any(totals <= 0):
        raise ValueError("each row must have positive total weight")
    scaled = w * (n / totals)[:, None]

    prob = np.ones((num_rows, n), dtype=np.float64)
    alias = np.tile(np.arange(n, dtype=np.int64), (num_rows, 1))
    if num_rows == 0 or n == 1:
        return prob, alias

    # Stacks of small (< 1) and large (>= 1) entries per row: a stable
    # partition puts each stack's members first in ascending index order
    # (the scalar build's list-comprehension order); pops/pushes happen
    # at position ``top - 1`` / ``top``, i.e. at the end, like ``.pop()``
    # and ``.append()``.
    is_small = scaled < 1.0
    small_stack = np.argsort(~is_small, axis=1, kind="stable")
    large_stack = np.argsort(is_small, axis=1, kind="stable")
    small_top = is_small.sum(axis=1)
    large_top = n - small_top

    rows = np.arange(num_rows, dtype=np.int64)
    active = (small_top > 0) & (large_top > 0)
    while np.any(active):
        idx = rows[active]
        st = small_top[idx] - 1
        lt = large_top[idx] - 1
        s = small_stack[idx, st]
        l_ = large_stack[idx, lt]
        ps = scaled[idx, s]
        prob[idx, s] = ps
        alias[idx, s] = l_
        new_l = scaled[idx, l_] - (1.0 - ps)
        scaled[idx, l_] = new_l
        small_top[idx] = st  # s popped
        to_small = new_l < 1.0
        demoted = idx[to_small]
        if demoted.size:
            # l popped from large, pushed onto small.
            large_top[demoted] = lt[to_small]
            small_stack[demoted, small_top[demoted]] = l_[to_small]
            small_top[demoted] += 1
        # rows where l stays large: popped then pushed back — no change.
        active[idx] = (small_top[idx] > 0) & (large_top[idx] > 0)
    # Leftover stack members keep their init (prob 1, alias identity),
    # matching the scalar build's leftover loop.
    return prob, alias
