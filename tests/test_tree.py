"""Unit, property and statistical tests for the Figure 5 index tree."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats as sps

from repro.core.tree import IndexTree

weights_strategy = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=200),
    elements=st.floats(min_value=0.0, max_value=100.0),
).filter(lambda w: w.sum() > 1e-9)


def linear_search_reference(weights: np.ndarray, target: float) -> int:
    """O(n) reference: smallest k with ``cumsum(weights)[k] > target``.

    The property tests compare :meth:`IndexTree.batch_search` against it.
    """
    w = np.asarray(weights, dtype=np.float64)
    acc = 0.0
    for k in range(w.size):
        acc += w[k]
        if target < acc:
            return k
    raise ValueError("target beyond total weight")


def cdf_sample(
    weights: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Flat prefix-sum sampling (no tree): ``searchsorted(cumsum, u*total)``.

    The memory-hungry variant the index tree replaces; the statistical
    tests use it as an oracle.
    """
    w = np.asarray(weights, dtype=np.float64)
    cdf = np.cumsum(w)
    total = cdf[-1]
    if total <= 0:
        raise ValueError("cannot sample from an all-zero weight vector")
    idx = np.searchsorted(cdf, np.asarray(u) * total, side="right")
    return np.clip(idx, 0, w.size - 1)


def assert_search_equivalent(w, target, got, want):
    """Equal results, or a boundary hit within floating tolerance.

    The tree accumulates weights in fanout-blocks while the linear scan
    accumulates left-to-right; when the target lies within rounding error
    of a prefix-sum boundary the two legitimately disagree by crossing
    that boundary (identical on real GPU trees).  Any weight enclosed
    between the two answers must then be negligible.
    """
    if got == want:
        return
    cdf = np.cumsum(w)
    lo, hi = min(got, want), max(got, want)
    eps = 1e-9 * max(1.0, cdf[-1])
    assert all(
        abs(cdf[j] - target) <= eps for j in range(lo, hi)
    ), f"search mismatch {got} vs {want} not explained by rounding"


class TestConstruction:
    def test_figure5_example(self):
        """The paper's p[8] example: prefix sums and search agree."""
        p = np.array([0.01, 0.02, 0.03, 0.02, 0.04, 0.06, 0.01, 0.01])
        tree = IndexTree(p, fanout=2)
        assert tree.total == pytest.approx(0.20)
        # u = 0.15 falls in leaf 5 (prefixSum = ... 0.12, 0.18 ...)
        assert tree.search(0.15) == 5

    def test_single_leaf(self):
        t = IndexTree(np.array([3.0]))
        assert t.depth == 0
        assert t.search(1.5) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            IndexTree(np.array([1.0, -0.1]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IndexTree(np.array([]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            IndexTree(np.array([1.0, np.nan]))

    def test_rejects_small_fanout(self):
        with pytest.raises(ValueError):
            IndexTree(np.array([1.0]), fanout=1)

    def test_depth_32way(self):
        assert IndexTree(np.ones(32)).depth == 1
        assert IndexTree(np.ones(33)).depth == 2
        assert IndexTree(np.ones(1024)).depth == 2
        assert IndexTree(np.ones(1025)).depth == 3

    def test_num_nodes(self):
        t = IndexTree(np.ones(1024))
        assert t.num_nodes == 1024 + 32 + 1
        assert t.nbytes(4) == t.num_nodes * 4

    def test_all_zero_search_rejected(self):
        t = IndexTree(np.zeros(4) + 0.0)
        with pytest.raises(ValueError, match="all-zero"):
            t.batch_search(np.array([0.0]))


class TestSearch:
    def test_out_of_range_target(self):
        t = IndexTree(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            t.batch_search(np.array([2.0]))
        with pytest.raises(ValueError):
            t.batch_search(np.array([-0.1]))

    def test_zero_weight_leaves_skipped(self):
        t = IndexTree(np.array([0.0, 1.0, 0.0, 1.0]))
        out = t.batch_search(np.array([0.0, 0.5, 1.0, 1.5]))
        assert set(out.tolist()) <= {1, 3}

    def test_boundary_targets(self):
        t = IndexTree(np.array([1.0, 1.0, 1.0]))
        assert t.search(0.0) == 0
        assert t.search(1.0) == 1  # prefix > target, not >=
        assert t.search(2.999999) == 2

    @given(weights_strategy, st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_matches_linear_reference(self, w, frac):
        target = frac * w.sum()
        tree = IndexTree(w)
        if target >= tree.total:  # rounding: frac*sum can exceed tree total
            target = np.nextafter(tree.total, 0.0)
        assert_search_equivalent(
            w, target, tree.search(target), linear_search_reference(w, min(target, w.sum() * (1 - 1e-12)))
        )

    @given(
        weights_strategy,
        st.integers(min_value=2, max_value=64),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_fanout_invariant(self, w, fanout, seed):
        """Any fanout yields the same answer — tree shape is an impl detail."""
        rng = np.random.default_rng(seed)
        t_small = IndexTree(w, fanout=fanout)
        t_32 = IndexTree(w, fanout=32)
        total = min(t_small.total, t_32.total)
        targets = rng.random(16) * total
        a = t_small.batch_search(targets)
        b = t_32.batch_search(targets)
        for t, x, y in zip(targets, a, b):
            assert_search_equivalent(w, t, int(x), int(y))

    @given(weights_strategy, st.integers(min_value=0, max_value=2**31))
    def test_matches_flat_cdf(self, w, seed):
        """Tree search == flat prefix-sum search (the ablation claim)."""
        rng = np.random.default_rng(seed)
        u = rng.random(32)
        tree = IndexTree(w)
        a = tree.batch_search(u * tree.total)
        b = cdf_sample(w, u)
        for uu, x, y in zip(u, a, b):
            assert_search_equivalent(w, uu * tree.total, int(x), int(y))


class TestDistribution:
    def test_sampling_distribution_chisquare(self):
        """Samples follow the weight distribution (Figure 5 soundness)."""
        rng = np.random.default_rng(42)
        w = np.array([1.0, 2.0, 3.0, 4.0, 0.0, 10.0])
        tree = IndexTree(w)
        n = 20_000
        draws = tree.sample(rng, size=n)
        counts = np.bincount(draws, minlength=6)
        assert counts[4] == 0
        expected = w / w.sum() * n
        mask = w > 0
        chi2 = sps.chisquare(counts[mask], expected[mask])
        assert chi2.pvalue > 1e-3

    def test_sample_size_zero(self):
        t = IndexTree(np.ones(3))
        assert t.sample(np.random.default_rng(0), size=0).shape == (0,)

    def test_sample_negative_size(self):
        with pytest.raises(ValueError):
            IndexTree(np.ones(3)).sample(np.random.default_rng(0), size=-1)


class TestCdfSample:
    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            cdf_sample(np.zeros(3), np.array([0.5]))

    def test_basic(self):
        out = cdf_sample(np.array([1.0, 0.0, 1.0]), np.array([0.1, 0.9]))
        assert list(out) == [0, 2]
