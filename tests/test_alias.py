"""Unit, property and statistical tests for Vose alias tables."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats as sps

from repro.baselines.alias import build_alias_tables

weights_strategy = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=50),
    elements=st.floats(min_value=0.0, max_value=10.0),
).filter(lambda w: w.sum() > 1e-9)


class AliasTable:
    """Reference: the scalar Walker/Vose alias table over non-negative
    weights, which ``build_alias_tables`` replays row by row.

    Build is a two-pointer partition over the normalised weights;
    sampling draws ``(slot, coin)`` pairs and resolves each in O(1).
    """

    __slots__ = ("prob", "alias", "_n", "total")

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and non-negative")
        total = float(w.sum())
        if total <= 0:
            raise ValueError("weights must not all be zero")
        self._n = n = w.size
        self.total = total
        scaled = w * (n / total)
        prob = np.ones(n, dtype=np.float64)
        alias = np.arange(n, dtype=np.int64)
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        scaled = scaled.copy()
        while small and large:
            s = small.pop()
            l = large.pop()
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] = scaled[l] - (1.0 - scaled[s])
            if scaled[l] < 1.0:
                small.append(l)
            else:
                large.append(l)
        # Leftovers are 1.0 up to floating error.
        for i in small + large:
            prob[i] = 1.0
            alias[i] = i
        self.prob = prob
        self.alias = alias

    @property
    def size(self) -> int:
        return self._n

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` indices with probability proportional to weight."""
        if size < 0:
            raise ValueError("size must be non-negative")
        slots = rng.integers(0, self._n, size=size)
        coins = rng.random(size)
        return np.where(coins < self.prob[slots], slots, self.alias[slots])


def build_alias_columns(matrix: np.ndarray, offset: float) -> list[AliasTable]:
    """Reference: one scalar-built alias table per column of
    ``matrix + offset`` (LightLDA's historical per-word tables)."""
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    if offset < 0:
        raise ValueError("offset must be non-negative")
    return [
        AliasTable(matrix[:, j].astype(np.float64) + offset)
        for j in range(matrix.shape[1])
    ]


class TestConstruction:
    def test_basic(self):
        t = AliasTable(np.array([1.0, 3.0]))
        assert t.size == 2
        assert t.total == pytest.approx(4.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AliasTable(np.array([]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            AliasTable(np.array([1.0, -1.0]))

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            AliasTable(np.zeros(3))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            AliasTable(np.array([np.nan, 1.0]))

    @given(weights_strategy)
    def test_prob_mass_conserved(self, w):
        """Alias invariant: slot probabilities reassemble the weights."""
        t = AliasTable(w)
        n = w.size
        recon = t.prob.copy()
        np.add.at(recon, t.alias, 1.0 - t.prob)
        expect = w * (n / w.sum())
        assert np.allclose(recon, expect, atol=1e-9)

    @given(weights_strategy)
    def test_prob_in_unit_interval(self, w):
        t = AliasTable(w)
        assert np.all(t.prob >= 0) and np.all(t.prob <= 1 + 1e-12)
        assert np.all(t.alias >= 0) and np.all(t.alias < w.size)


class TestSampling:
    def test_distribution_chisquare(self):
        rng = np.random.default_rng(7)
        w = np.array([5.0, 1.0, 0.0, 4.0])
        t = AliasTable(w)
        draws = t.sample(rng, size=20_000)
        counts = np.bincount(draws, minlength=4)
        assert counts[2] == 0
        mask = w > 0
        expected = w[mask] / w.sum() * 20_000
        assert sps.chisquare(counts[mask], expected).pvalue > 1e-3

    def test_zero_size(self):
        t = AliasTable(np.ones(3))
        assert t.sample(np.random.default_rng(0), size=0).shape == (0,)

    def test_negative_size(self):
        with pytest.raises(ValueError):
            AliasTable(np.ones(3)).sample(np.random.default_rng(0), size=-1)

    def test_deterministic_single_atom(self):
        t = AliasTable(np.array([0.0, 2.0, 0.0]))
        draws = t.sample(np.random.default_rng(0), size=100)
        assert np.all(draws == 1)


class TestColumns:
    def test_build_columns(self):
        m = np.array([[1, 0], [2, 3]], dtype=np.float64)
        tables = build_alias_columns(m, offset=0.5)
        assert len(tables) == 2
        assert tables[0].total == pytest.approx(4.0)
        assert tables[1].total == pytest.approx(4.0)
        # the batched build over the transposed matrix replays them
        prob, alias = build_alias_tables(m.T + 0.5)
        for j, t in enumerate(tables):
            assert np.array_equal(t.prob, prob[j])
            assert np.array_equal(t.alias, alias[j])

    def test_rejects_negative_offset(self):
        with pytest.raises(ValueError):
            build_alias_columns(np.ones((2, 2)), offset=-1)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            build_alias_columns(np.ones(3), offset=0.1)


class TestBatchedBuild:
    """build_alias_tables must replay the scalar build bit-for-bit."""

    def _random_rows(self, seed, num_rows=40, n=37, zero_frac=0.6):
        rng = np.random.default_rng(seed)
        w = rng.integers(0, 50, size=(num_rows, n)).astype(np.float64)
        w[rng.random((num_rows, n)) < zero_frac] = 0.0
        return w + 0.01  # phi + beta shape: strictly positive

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_scalar_build(self, seed):
        w = self._random_rows(seed)
        prob, alias = build_alias_tables(w)
        for r in range(w.shape[0]):
            t = AliasTable(w[r])
            assert np.array_equal(t.prob, prob[r])
            assert np.array_equal(t.alias, alias[r])

    def test_uniform_rows(self):
        w = np.ones((3, 8))
        prob, alias = build_alias_tables(w)
        assert np.array_equal(prob, np.ones((3, 8)))
        assert np.array_equal(alias, np.tile(np.arange(8), (3, 1)))

    def test_single_column(self):
        prob, alias = build_alias_tables(np.array([[3.0], [1.0]]))
        assert np.array_equal(prob, np.ones((2, 1)))
        assert np.array_equal(alias, np.zeros((2, 1), dtype=np.int64))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_alias_tables(np.ones(4))  # 1-D
        with pytest.raises(ValueError):
            build_alias_tables(np.array([[1.0, -1.0]]))
        with pytest.raises(ValueError):
            build_alias_tables(np.array([[0.0, 0.0]]))

    @given(weights_strategy)
    def test_matches_scalar_on_hypothesis_rows(self, w):
        prob, alias = build_alias_tables(w[None, :])
        t = AliasTable(w)
        assert np.array_equal(t.prob, prob[0])
        assert np.array_equal(t.alias, alias[0])
