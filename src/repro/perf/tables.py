"""Cached special-function tables for the likelihood kernels.

The joint log-likelihood (Figure 8) evaluates ``lnG(n + offset)`` for
millions of *small integer* counts ``n`` with only two distinct offsets
(``alpha`` and ``beta``).  Computing ``gammaln`` per element wastes a
transcendental evaluation on each; a table over ``n = 0..max_count``
turns the whole pass into integer gathers.

Bit-exactness: ``lngamma_table(offset, size)[n] == gammaln(n + offset)``
for every ``n`` — integers are exactly representable, so the table entry
is ``gammaln`` of the *same* float64 input the direct evaluation would
see.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

__all__ = ["lngamma_table", "counts_of_counts_lngamma"]

#: offset -> read-only float64 table; grown geometrically, never shrunk.
_TABLES: dict[float, np.ndarray] = {}

_MIN_SIZE = 256


def lngamma_table(offset: float, size: int) -> np.ndarray:
    """Read-only table ``t`` with ``t[n] = lnG(n + offset)``, ``len >= size``.

    ``offset`` must be positive (Dirichlet hyper-parameters are).  The
    per-offset table is cached at module scope and grown on demand, so
    repeated likelihood evaluations over a training run build it once.
    """
    offset = float(offset)
    if not (offset > 0.0) or not np.isfinite(offset):
        raise ValueError(f"offset must be positive and finite, got {offset}")
    size = int(size)
    tab = _TABLES.get(offset)
    if tab is None or tab.shape[0] < size:
        have = 0 if tab is None else tab.shape[0]
        n = max(size, _MIN_SIZE, 2 * have)
        tab = gammaln(np.arange(n, dtype=np.float64) + offset)
        tab.setflags(write=False)
        _TABLES[offset] = tab
    return tab


def counts_of_counts_lngamma(hist: np.ndarray, offset: float) -> float:
    """``sum_c hist[c] * (lnG(c + offset) - lnG(offset))`` over ``c >= 1``.

    ``hist`` is a counts-of-counts histogram (``hist[c]`` = how many
    matrix entries hold count ``c``, e.g. ``np.bincount(phi.ravel())``).
    Grouping equal counts turns a per-entry ``gammaln`` sum into one dot
    product over the small-integer count range — the O(nnz)-gather form
    of the likelihood's count terms.
    """
    hist = np.asarray(hist)
    if hist.shape[0] <= 1:
        return 0.0
    table = lngamma_table(offset, hist.shape[0])
    contrib = table[1 : hist.shape[0]] - table[0]
    return float(np.dot(hist[1:].astype(np.float64), contrib))
