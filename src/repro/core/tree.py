"""Tree-based sampling: the prefix-sum index tree of Figure 5.

The paper turns a multinomial draw over ``p[0..n)`` into a search: compute
prefix sums, draw ``u ~ U(0, total)`` and find the smallest ``k`` with
``prefixSum[k] > u``.  A 32-way index tree over the prefix sums keeps the
search's working set small enough for shared memory ("the index tree is
small enough to fit into shared memory ... only the two elements of p are
in the memory"), and a warp inspects the 32 children of one node in a
single SIMD step.

:class:`IndexTree` is a faithful implementation: bottom-up 32-wide sum
levels and a top-down descent.  ``batch_search`` performs the descent for
many draws at once — each level resolves with one ``searchsorted`` over
the level's global cumulative sums, which is bit-identical to every warp
scanning its node's children in parallel.
"""

from __future__ import annotations

import numpy as np

#: Paper: "we use 32-way tree in the tree-based sampling" (warp width).
DEFAULT_FANOUT = 32


class IndexTree:
    """A ``fanout``-way sum tree over non-negative weights.

    Parameters
    ----------
    weights:
        1-D non-negative array; zeros are allowed (never sampled).
    fanout:
        Tree arity; 32 matches one warp inspecting one node per step.
    """

    __slots__ = ("fanout", "levels", "cumsums", "_n")

    def __init__(self, weights: np.ndarray, fanout: int = DEFAULT_FANOUT):
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and non-negative")
        self.fanout = fanout
        self._n = w.size
        self.levels: list[np.ndarray] = [w.copy()]
        while self.levels[-1].size > 1:
            cur = self.levels[-1]
            pad = (-cur.size) % fanout
            if pad:
                cur = np.concatenate([cur, np.zeros(pad)])
            self.levels.append(cur.reshape(-1, fanout).sum(axis=1))
        # Global cumulative sums per level, used by the SIMD descent.
        self.cumsums = [np.cumsum(lvl) for lvl in self.levels]

    @property
    def size(self) -> int:
        """Number of leaves (the length of the weight vector)."""
        return self._n

    @property
    def total(self) -> float:
        """Sum of all weights (the root node)."""
        return float(self.levels[-1][0])

    @property
    def num_nodes(self) -> int:
        """Total node count across all levels (shared-memory footprint)."""
        return sum(lvl.size for lvl in self.levels)

    def nbytes(self, float_bytes: int = 4) -> int:
        """Device footprint assuming ``float_bytes`` per node."""
        return self.num_nodes * float_bytes

    @property
    def depth(self) -> int:
        """Number of descent steps from root to leaf."""
        return len(self.levels) - 1

    def search(self, target: float) -> int:
        """Scalar search: smallest leaf ``k`` with ``prefix[k] > target``.

        ``target`` must lie in ``[0, total)``.
        """
        out = self.batch_search(np.asarray([target], dtype=np.float64))
        return int(out[0])

    def batch_search(self, targets: np.ndarray) -> np.ndarray:
        """Vectorised descent for many targets at once.

        Each level is resolved with a single ``searchsorted`` on the
        level's global cumulative sums: for a query sitting at node ``j``
        the children occupy a contiguous span whose in-span cumulative
        sums are ``cumsum - base``; finding the crossing child is a search
        for ``base + residual`` in the global cumsum.  Exactly the warp
        -parallel 32-way scan of the paper, for all queries at once.
        """
        t = np.asarray(targets, dtype=np.float64)
        if t.ndim != 1:
            raise ValueError("targets must be 1-D")
        if self.total <= 0:
            raise ValueError("cannot sample from an all-zero tree")
        if t.size and (t.min() < 0 or t.max() >= self.total):
            raise ValueError(
                f"targets must lie in [0, {self.total}); got "
                f"[{t.min()}, {t.max()}]"
            )
        node = np.zeros(t.shape[0], dtype=np.int64)
        resid = t.copy()
        for lvl in range(len(self.levels) - 2, -1, -1):
            ccs = self.cumsums[lvl]
            lo = node * self.fanout
            hi = np.minimum(lo + self.fanout, ccs.shape[0])
            base = np.where(lo > 0, ccs[np.maximum(lo - 1, 0)], 0.0)
            pos = np.searchsorted(ccs, base + resid, side="right")
            # Floating-point guard: stay inside the node's child span.
            pos = np.clip(pos, lo, hi - 1)
            prev = np.where(pos > 0, ccs[np.maximum(pos - 1, 0)], 0.0)
            resid = resid - (prev - base)
            # Guard tiny negative residuals from cancellation.
            np.maximum(resid, 0.0, out=resid)
            node = pos
        return node

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` leaves with probability proportional to weight."""
        if size < 0:
            raise ValueError("size must be non-negative")
        u = rng.random(size) * self.total
        return self.batch_search(u)

