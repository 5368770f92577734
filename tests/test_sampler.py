"""Correctness tests for the CuLDA_CGS sampling kernel (Algorithm 2).

The heavy lifting is statistical: for any token, the *marginal* of its
new topic over repeated chunk passes (fresh RNG, same snapshot) must
match the exact CGS conditional of Eq. 1 with the token's own count
excluded — :func:`conditional_distribution` below is the dense oracle.
"""

from copy import deepcopy
from fractions import Fraction
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats as sps

import repro.core.sampler as sampler_mod
from repro.core import TrainerConfig
from repro.core.model import LdaState
from repro.core.sampler import sample_chunk
from repro.core.sparse import CsrCounts, from_assignments
from repro.corpus.document import Corpus
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec
from repro.perf import Workspace


def conditional_distribution(
    doc_theta_row: np.ndarray,
    phi_col: np.ndarray,
    topic_totals: np.ndarray,
    z_current: int,
    alpha: float,
    beta: float,
    num_words: int,
) -> np.ndarray:
    """Exact CGS conditional p(k) for one token (Eq. 1), normalised.

    Dense reference the statistical tests validate the vectorised
    sampler against: exclude the token's own count, then
    ``p(k) ~ (theta[d,k] + alpha) * (phi[k,v] + beta) / (totals[k] + beta*V)``.
    """
    theta = doc_theta_row.astype(np.float64).copy()
    phi_v = phi_col.astype(np.float64).copy()
    totals = topic_totals.astype(np.float64).copy()
    if theta[z_current] < 1 or phi_v[z_current] < 1 or totals[z_current] < 1:
        raise ValueError("current topic not represented in the counts")
    theta[z_current] -= 1.0
    phi_v[z_current] -= 1.0
    totals[z_current] -= 1.0
    p = (theta + alpha) * (phi_v + beta) / (totals + beta * num_words)
    total = p.sum()
    if total <= 0:
        raise ValueError("degenerate conditional distribution")
    return p / total


def make_state(corpus, num_topics=8, seed=0):
    cfg = TrainerConfig(num_topics=num_topics, seed=seed)
    return LdaState.initialize(corpus, cfg), cfg


@pytest.fixture(scope="module")
def fixture_state():
    corpus = generate_synthetic_corpus(
        small_spec(num_docs=30, num_words=40, mean_doc_len=12, num_topics=4),
        seed=5,
    )
    state, cfg = make_state(corpus, num_topics=8, seed=1)
    return corpus, state, cfg


class TestMechanics:
    def test_deterministic_given_rng(self, fixture_state):
        _, state, cfg = fixture_state
        cs = state.chunks[0]
        a = sample_chunk(
            cs.chunk, cs.topics, cs.theta, state.phi, state.topic_totals,
            cfg.effective_alpha, cfg.effective_beta, np.random.default_rng(3),
        )
        b = sample_chunk(
            cs.chunk, cs.topics, cs.theta, state.phi, state.topic_totals,
            cfg.effective_alpha, cfg.effective_beta, np.random.default_rng(3),
        )
        assert np.array_equal(a.new_topics, b.new_topics)

    def test_input_not_mutated(self, fixture_state):
        _, state, cfg = fixture_state
        cs = state.chunks[0]
        before = cs.topics.copy()
        phi_before = state.phi.copy()
        sample_chunk(
            cs.chunk, cs.topics, cs.theta, state.phi, state.topic_totals,
            cfg.effective_alpha, cfg.effective_beta, np.random.default_rng(0),
        )
        assert np.array_equal(cs.topics, before)
        assert np.array_equal(state.phi, phi_before)

    def test_topics_in_range(self, fixture_state):
        _, state, cfg = fixture_state
        cs = state.chunks[0]
        res = sample_chunk(
            cs.chunk, cs.topics, cs.theta, state.phi, state.topic_totals,
            cfg.effective_alpha, cfg.effective_beta, np.random.default_rng(1),
        )
        z = res.new_topics.astype(np.int64)
        assert z.min() >= 0 and z.max() < cfg.num_topics
        assert res.new_topics.dtype == cs.topics.dtype

    def test_stats_consistent(self, fixture_state):
        _, state, cfg = fixture_state
        cs = state.chunks[0]
        res = sample_chunk(
            cs.chunk, cs.topics, cs.theta, state.phi, state.topic_totals,
            cfg.effective_alpha, cfg.effective_beta, np.random.default_rng(2),
        )
        s = res.stats
        assert s.num_tokens == cs.chunk.num_tokens
        assert s.num_p1_draws + s.num_p2_draws == s.num_tokens
        # sum_kd == sum over tokens of their doc's theta row length
        lens = cs.theta.row_lengths()
        expect = int(lens[cs.chunk.token_docs.astype(np.int64)].sum())
        assert s.sum_kd == expect
        assert 0 <= s.sum_kd_p1 <= s.sum_kd
        assert s.num_blocks == cs.chunk.block_plan.num_blocks

    def test_stale_theta_detected(self, fixture_state):
        """theta inconsistent with assignments must raise, not corrupt."""
        _, state, cfg = fixture_state
        cs = state.chunks[0]
        bad_topics = cs.topics.copy()
        bad_topics[0] = (int(bad_topics[0]) + 1) % cfg.num_topics
        with pytest.raises(AssertionError, match="out of sync"):
            sample_chunk(
                cs.chunk, bad_topics, cs.theta, state.phi, state.topic_totals,
                cfg.effective_alpha, cfg.effective_beta, np.random.default_rng(0),
            )

    def test_empty_chunk(self):
        corpus = Corpus.from_token_lists([[0], []], num_words=2)
        state, cfg = make_state(corpus, num_topics=4)
        cs = state.chunks[0]
        res = sample_chunk(
            cs.chunk, cs.topics, cs.theta, state.phi, state.topic_totals,
            cfg.effective_alpha, cfg.effective_beta, np.random.default_rng(0),
        )
        assert res.stats.num_tokens == cs.chunk.num_tokens

    def test_shape_validation(self, fixture_state):
        _, state, cfg = fixture_state
        cs = state.chunks[0]
        with pytest.raises(ValueError, match="topics length"):
            sample_chunk(
                cs.chunk, cs.topics[:-1], cs.theta, state.phi,
                state.topic_totals, cfg.effective_alpha, cfg.effective_beta,
                np.random.default_rng(0),
            )


def _draw(cs, state, cfg, topics=None, theta=None, workspace=None, seed=0):
    return sample_chunk(
        cs.chunk, cs.topics if topics is None else topics,
        cs.theta if theta is None else theta, state.phi, state.topic_totals,
        cfg.effective_alpha, cfg.effective_beta, np.random.default_rng(seed),
        workspace=workspace,
    )


class TestThetaDesync:
    """A theta that disagrees with ``topics`` (or with K) raises, never
    samples from a neighbouring row or word."""

    def test_topic_absent_from_row(self, fixture_state):
        _, state, cfg = fixture_state
        cs = state.chunks[0]
        dense = cs.theta.to_dense()
        doc = int(cs.chunk.token_docs[0])
        absent = np.flatnonzero(dense[doc] == 0)
        assert absent.size  # short rows never cover all 8 topics
        bad = cs.topics.copy()
        bad[0] = absent[0]
        with pytest.raises(AssertionError, match="out of sync"):
            _draw(cs, state, cfg, topics=bad)

    def test_topic_past_the_last_theta_key(self):
        """The search target sorts after every key of theta."""
        corpus = Corpus.from_token_lists([[0, 1], [1]], num_words=2)
        state, cfg = make_state(corpus, num_topics=4)
        cs = state.chunks[0]
        topics = np.zeros_like(cs.topics)  # theta keys: 0, 4 (d*K + 0)
        theta = from_assignments(
            cs.chunk.token_docs, topics, cs.chunk.num_local_docs, 4
        )
        bad = topics.copy()
        bad[np.flatnonzero(cs.chunk.token_docs == 1)] = 3  # target key 7
        with pytest.raises(AssertionError, match="out of sync"):
            _draw(cs, state, cfg, topics=bad, theta=theta)

    def test_token_document_row_empty(self, fixture_state):
        """An emptied row must not be read as the next row's entries."""
        _, state, cfg = fixture_state
        cs = state.chunks[0]
        th = cs.theta
        doc = int(cs.chunk.token_docs[0])
        lo, hi = int(th.indptr[doc]), int(th.indptr[doc + 1])
        indptr = th.indptr.copy()
        indptr[doc + 1:] -= hi - lo
        emptied = CsrCounts(
            indptr=indptr,
            indices=np.delete(th.indices, np.s_[lo:hi]),
            data=np.delete(th.data, np.s_[lo:hi]),
            num_cols=th.num_cols,
        )
        for ws in (None, Workspace()):
            with pytest.raises(AssertionError, match="out of sync"):
                _draw(cs, state, cfg, theta=emptied, workspace=ws)

    def test_theta_column_past_k_fails_the_checked_gather(self):
        """A stored column >= K that no token claims passes the desync
        check; the bounds-checked p* gather must still refuse it."""
        corpus = Corpus.from_token_lists([[0, 0], [0]], num_words=1)
        state, cfg = make_state(corpus, num_topics=4)
        cs = state.chunks[0]
        th = cs.theta
        corrupt = CsrCounts(
            indptr=np.append(th.indptr[:-1], th.indptr[-1] + 1),
            indices=np.append(th.indices, np.array([4], th.indices.dtype)),
            data=np.append(th.data, np.array([1], th.data.dtype)),
            num_cols=th.num_cols,
        )
        for ws in (None, Workspace()):
            with pytest.raises(IndexError):
                _draw(cs, state, cfg, theta=corrupt, workspace=ws)


#: Odd chunk shapes: up to 5 documents (possibly empty) of up to 6 tokens
#: over a vocabulary of 1-4 words, with K from 2 to 40.
_odd_docs = st.integers(1, 4).flatmap(
    lambda v: st.tuples(
        st.just(v),
        st.lists(
            st.lists(st.integers(0, v - 1), max_size=6), min_size=1, max_size=5
        ).filter(lambda docs: any(docs)),
    )
)


class TestOddShapes:
    """Degenerate chunk shapes through every workspace flavour and tile
    size (``None``: the default tile)."""

    @given(
        _odd_docs, st.integers(2, 40), st.integers(0, 2**16),
        st.sampled_from([1, 2, 7, None]),
    )
    @example((1, [[0]]), 2, 0, 1)  # n = 1: no segment boundaries at all
    @example((3, [[], [2, 0], []]), 5, 1, 1)  # empty documents around a token
    @example((4, [[3, 1, 1, 0, 2, 2]]), 3, 2, 2)  # one document
    @example((1, [[0, 0], [0], [0, 0, 0]]), 4, 3, 7)  # V = 1
    @example((2, [[0, 1], [1]]), 40, 4, 1)  # K larger than the token count
    def test_valid_and_workspace_invariant(self, vocab_docs, num_topics, seed,
                                           tile):
        num_words, docs = vocab_docs
        corpus = Corpus.from_token_lists(docs, num_words=num_words)
        state, cfg = make_state(corpus, num_topics=num_topics, seed=seed)
        cs = state.chunks[0]
        n = cs.chunk.num_tokens
        flavours = (
            ("float64", Workspace), ("none", lambda: None),
        )
        results = {}
        with mock.patch.object(
            sampler_mod, "_TILE", tile or sampler_mod._TILE
        ):
            for name, make_ws in flavours:
                results[name] = _draw(
                    cs, state, cfg, workspace=make_ws(), seed=seed
                )
        for name, make_ws in flavours:
            res = results[name]
            z = res.new_topics.astype(np.int64)
            assert z.shape == (n,) and res.new_topics.dtype == cs.topics.dtype
            assert z.min() >= 0 and z.max() < num_topics
            assert res.stats.num_p1_draws + res.stats.num_p2_draws == n
            untiled = _draw(cs, state, cfg, workspace=make_ws(), seed=seed)
            assert np.array_equal(res.new_topics, untiled.new_topics)
            assert res.stats == untiled.stats
        assert np.array_equal(
            results["float64"].new_topics, results["none"].new_topics
        )
        assert results["float64"].stats == results["none"].stats


def _sum_kd(cs):
    """Gather slots of a chunk: each token walks its document's theta row."""
    docs = cs.chunk.token_docs.astype(np.int64)
    return int(cs.theta.row_lengths()[docs].sum())


def _skewed_chunk():
    """One long document among many short ones, over 12 words.

    Tokens are word-first, so the long document's tokens are spread over
    the whole chain and its row totals dwarf the short documents'; a
    small alpha sends most draws to the p1 bucket.  The pair walk carries
    no running sum from one pair to the next (each pair's prefix sum
    starts at 0), so no tile size can change a draw here; a walk that
    carried one sum across the chunk changed about a dozen float32 draws
    when each tile's sum was seeded at 0 instead of the carry.
    """
    gen = np.random.default_rng(11)
    docs = [gen.integers(0, 12, 900).tolist()]
    docs += [gen.integers(0, 12, 3).tolist() for _ in range(200)]
    corpus = Corpus.from_token_lists(docs, num_words=12)
    cfg = TrainerConfig(num_topics=8, seed=4, alpha=0.01)
    state = LdaState.initialize(corpus, cfg)
    return state.chunks[0], state, cfg


class TestTiling:
    """The token-tiled theta walk is one chain, whatever the tile size."""

    @pytest.fixture(scope="class")
    def skewed(self):
        return _skewed_chunk()

    @pytest.mark.parametrize("dtype", ["float64", None])
    def test_tile_size_never_changes_the_draws(self, skewed, dtype):
        cs, state, cfg = skewed
        n = cs.chunk.num_tokens
        sum_kd = _sum_kd(cs)
        assert sum_kd > sampler_mod._TILE // 16  # several tiles at 2**12
        outs = []
        for tile in (1, 2, 7, sampler_mod._TILE >> 4, sampler_mod._TILE,
                     sum_kd, 4 * sum_kd):
            with mock.patch.object(sampler_mod, "_TILE", tile):
                ws = None if dtype is None else Workspace()
                outs.append((tile, _draw(cs, state, cfg, workspace=ws, seed=9)))
        _, first = outs[0]
        assert first.new_topics.shape == (n,)
        for tile, res in outs[1:]:
            assert np.array_equal(res.new_topics, first.new_topics), tile
            assert res.stats == first.stats, tile

    def test_desync_raises_before_any_tile(self, fixture_state):
        """The theta-desync check runs on chunk-wide data only: with the
        tile walk made to fail on first use, the desync still wins."""

        class _NoTileWalk:  # fails the tile count, the walk's first step
            def __rfloordiv__(self, other):
                raise RuntimeError("tile walk reached")

        _, state, cfg = fixture_state
        cs = state.chunks[0]
        bad = cs.topics.copy()
        bad[-1] = (int(bad[-1]) + 1) % cfg.num_topics
        with mock.patch.object(sampler_mod, "_TILE", _NoTileWalk()):
            for ws in (None, Workspace()):
                with pytest.raises(AssertionError, match="out of sync"):
                    _draw(cs, state, cfg, topics=bad, workspace=ws)
            with pytest.raises(RuntimeError, match="tile walk reached"):
                _draw(cs, state, cfg)

    def test_column_past_k_in_the_last_tile_fails_the_checked_gather(self):
        """A stored column >= K on the chunk's last token (last word, so
        its p* row is the last one) must raise from the p* gather of the
        last tile, not wrap into another row."""
        gen = np.random.default_rng(3)
        docs = [gen.integers(0, 5, 30).tolist() for _ in range(8)]
        docs.append([5, 5, 2])  # the only document holding word 5
        corpus = Corpus.from_token_lists(docs, num_words=6)
        state, cfg = make_state(corpus, num_topics=4, seed=2)
        cs = state.chunks[0]
        th = cs.theta
        assert int(cs.chunk.token_docs[-1]) == th.num_rows - 1
        corrupt = CsrCounts(
            indptr=np.append(th.indptr[:-1], th.indptr[-1] + 1),
            indices=np.append(th.indices, np.array([4], th.indices.dtype)),
            data=np.append(th.data, np.array([1], th.data.dtype)),
            num_cols=th.num_cols,
        )
        for tile in (7, sampler_mod._TILE):
            with mock.patch.object(sampler_mod, "_TILE", tile):
                for ws in (None, Workspace()):
                    with pytest.raises(IndexError):
                        _draw(cs, state, cfg, theta=corrupt, workspace=ws)


class TestTiledFootprint:
    """No pooled buffer scales with sum-Kd."""

    def test_pool_is_linear_in_tokens_trees_and_tile(self):
        tile = 1 << 11
        gen = np.random.default_rng(5)
        docs = [gen.integers(0, 10, 200).tolist() for _ in range(20)]
        corpus = Corpus.from_token_lists(docs, num_words=10)
        num_topics = 64
        state, cfg = make_state(corpus, num_topics=num_topics, seed=1)
        cs = state.chunks[0]
        n = cs.chunk.num_tokens
        sum_kd = _sum_kd(cs)
        wp = int(np.count_nonzero(np.diff(cs.chunk.word_offsets)))
        assert sum_kd >= 8 * tile
        ws = Workspace()
        with mock.patch.object(sampler_mod, "_TILE", tile):
            first = _draw(cs, state, cfg, workspace=ws)
            misses = ws.misses
            second = _draw(cs, state, cfg, workspace=ws)
        assert ws.misses == misses  # warm: every buffer came from the pool
        assert np.array_equal(first.new_topics, second.new_topics)
        assert max(b.size for b in ws._pool.values()) < sum_kd
        # ~30 n-sized and 4 K x Wp roles, one tile-sized buffer + ramp
        bound = 8 * (48 * (n + 1) + 4 * num_topics * wp + 4 * tile)
        assert ws.nbytes < bound < ws.nbytes + 8 * sum_kd

    def test_trees_take_three_float_buffers_and_the_gather(self):
        # K * Wp dwarfs every token-sized buffer: 10 documents of 40
        # distinct words each, all 400 words present.
        num_topics, wp = 256, 400
        docs = [list(range(40 * i, 40 * i + 40)) for i in range(10)]
        corpus = Corpus.from_token_lists(docs, num_words=wp)
        state, cfg = make_state(corpus, num_topics=num_topics, seed=2)
        cs = state.chunks[0]
        assert np.count_nonzero(np.diff(cs.chunk.word_offsets)) == wp
        assert 50 * cs.chunk.num_tokens < num_topics * wp
        ws = Workspace()
        _draw(cs, state, cfg, workspace=ws)
        trees = [b for b in ws._pool.values() if b.size >= num_topics * wp]
        assert state.phi.dtype == np.int32
        assert sum(b.nbytes for b in trees) <= (3 * 8 + 4) * num_topics * wp


class TestStatisticalCorrectness:
    """Marginal of each token's draw == exact CGS conditional (chi-square)."""

    def _marginal_matches(self, corpus, num_topics, token_idx, runs=4000, seed=0):
        state, cfg = make_state(corpus, num_topics=num_topics, seed=seed)
        cs = state.chunks[0]
        counts = np.zeros(num_topics, dtype=np.int64)
        for r in range(runs):
            res = sample_chunk(
                cs.chunk, cs.topics, cs.theta, state.phi, state.topic_totals,
                cfg.effective_alpha, cfg.effective_beta,
                np.random.default_rng(10_000 + r),
            )
            counts[int(res.new_topics[token_idx])] += 1
        # oracle
        d = int(cs.chunk.token_docs[token_idx])
        v = int(cs.chunk.token_words[token_idx])
        z = int(cs.topics[token_idx])
        theta_row = cs.theta.to_dense()[d]
        expected = conditional_distribution(
            theta_row, state.phi[:, v], state.topic_totals, z,
            cfg.effective_alpha, cfg.effective_beta, corpus.num_words,
        )
        mask = expected * runs >= 5  # chi-square validity
        chi = sps.chisquare(
            counts[mask], expected[mask] / expected[mask].sum() * counts[mask].sum()
        )
        return chi.pvalue

    def test_token_in_long_document(self):
        corpus = generate_synthetic_corpus(
            small_spec(num_docs=12, num_words=25, mean_doc_len=15, num_topics=3),
            seed=2,
        )
        p = self._marginal_matches(corpus, num_topics=6, token_idx=3)
        assert p > 1e-3

    def test_token_in_single_token_document(self):
        """Exclusion empties the theta row: the p2 bucket must carry all."""
        docs = [[0], [1, 2, 0, 1], [2, 2, 1, 0, 0], [0, 1], [2, 1, 0]]
        corpus = Corpus.from_token_lists(docs, num_words=3)
        p = self._marginal_matches(corpus, num_topics=5, token_idx=0)
        assert p > 1e-3

    def test_token_inside_repeated_pair(self):
        """The middle token of a (word, document) run of three reads its
        pair's shared prefix sums with its own count swapped out."""
        docs = [[0, 1, 1, 1, 2, 0], [1, 2, 2, 0], [2, 1, 0, 0, 1]]
        corpus = Corpus.from_token_lists(docs, num_words=3)
        cs = make_state(corpus, num_topics=5)[0].chunks[0]
        start, _ = next((a, b) for a, b in _pairs_of(cs) if b - a >= 3)
        p = self._marginal_matches(corpus, num_topics=5, token_idx=start + 1)
        assert p > 1e-3

    def test_token_of_heavily_assigned_topic(self):
        """Stress the shifted-CDF exclusion path: skewed initial topics."""
        corpus = Corpus.from_token_lists(
            [[0, 0, 1, 1, 2], [0, 1, 2, 2], [1, 1, 0]], num_words=3
        )
        state, cfg = make_state(corpus, num_topics=4, seed=3)
        cs = state.chunks[0]
        # Force every token to topic 1 so exclusion adjustments are large.
        cs.topics = np.ones_like(cs.topics)
        cs.rebuild_theta(cfg.num_topics)
        state.phi[...] = 0
        np.add.at(
            state.phi,
            (cs.topics.astype(np.int64), cs.chunk.token_words.astype(np.int64)),
            1,
        )
        state.topic_totals[...] = state.phi.sum(axis=1, dtype=np.int64)
        counts = np.zeros(4, dtype=np.int64)
        runs = 4000
        for r in range(runs):
            res = sample_chunk(
                cs.chunk, cs.topics, cs.theta, state.phi, state.topic_totals,
                cfg.effective_alpha, cfg.effective_beta,
                np.random.default_rng(50_000 + r),
            )
            counts[int(res.new_topics[0])] += 1
        d = int(cs.chunk.token_docs[0])
        v = int(cs.chunk.token_words[0])
        expected = conditional_distribution(
            cs.theta.to_dense()[d], state.phi[:, v], state.topic_totals, 1,
            cfg.effective_alpha, cfg.effective_beta, corpus.num_words,
        )
        chi = sps.chisquare(counts, expected * runs)
        assert chi.pvalue > 1e-3


def _wide_vocab_fixture():
    """K = 256 over 2,400 present words, the last of them (column 2399)
    carrying a run of one-token documents.

    The last word's counts halve every 16 topics, from 1000 down to 0, so
    its p2 shares span about 2^-5 to 2^-21; 137 of them are below 2^-12,
    the spacing of a float32 CDF offset by the column index there.  The
    other chunks' counts (on word 0) make every topic total 30,000.
    """
    num_topics, num_words = 256, 2400
    last = num_words - 1
    counts = (1000 * 2.0 ** (-np.arange(num_topics) / 16)).astype(np.int64)
    cover = [list(range(lo, min(lo + 100, last))) for lo in range(0, last, 100)]
    corpus = Corpus.from_token_lists(
        cover + [[last]] * int(counts.sum()), num_words=num_words
    )
    cfg = TrainerConfig(num_topics=num_topics, seed=0, alpha=0.1, beta=0.01)
    state = LdaState.initialize(corpus, cfg)
    cs = state.chunks[0]
    w = cs.chunk.token_words.astype(np.int64)
    z = cs.topics.astype(np.int64)
    z[w == last] = np.repeat(np.arange(num_topics), counts)
    cs.topics = z.astype(cs.topics.dtype)
    cs.rebuild_theta(num_topics)
    state.phi[...] = 0
    np.add.at(state.phi, (z, w), 1)
    state.phi[:, 0] += 30_000 - state.phi.sum(axis=1)
    state.topic_totals[...] = state.phi.sum(axis=1, dtype=np.int64)
    return state, cfg, np.flatnonzero(w == last)


class TestWideVocabularyP2:
    """p2 draws at the last column of a wide vocabulary, where a search
    key of column index plus normalised CDF leaves float32 about 12 bits
    for the CDF.  A float32 kernel fails here: 19 of the 256 topics fell
    outside the bound below, 17 of them with shares under 2^-12."""

    def test_draws_match_the_exact_p2_target(self):
        state, cfg, run = _wide_vocab_fixture()
        cs = state.chunks[0]
        num_topics, num_words = state.phi.shape
        last = num_words - 1
        assert np.count_nonzero(np.diff(cs.chunk.word_offsets)) == num_words
        # One token per document: excluding its own count empties its
        # theta row, so S = 0 and every run token draws from p2.
        docs = cs.chunk.token_docs[run].astype(np.int64)
        assert np.all(cs.theta.row_lengths()[docs] == 1)
        z_run = cs.topics[run].astype(np.int64)
        expected = np.zeros(num_topics)
        for z, n_z in enumerate(np.bincount(z_run, minlength=num_topics)):
            if n_z:
                own = np.zeros(num_topics, dtype=np.int64)
                own[z] = 1
                expected += n_z * conditional_distribution(
                    own, state.phi[:, last], state.topic_totals, z,
                    cfg.effective_alpha, cfg.effective_beta, num_words,
                )
        calls = 12
        observed = np.zeros(num_topics, dtype=np.int64)
        for seed in range(calls):
            res = _draw(cs, state, cfg, workspace=Workspace(), seed=seed)
            observed += np.bincount(
                res.new_topics[run].astype(np.int64), minlength=num_topics
            )
        # Each topic's count is a sum of independent Bernoulli draws, no
        # wider than the binomial of the same mean; a correct kernel
        # leaves any topic outside its interval with probability < 1e-6.
        draws = calls * run.shape[0]
        mean = calls * expected
        lo, hi = sps.binom.interval(1 - 1e-6 / num_topics, draws, mean / draws)
        small = expected / run.shape[0] < 2.0**-12
        assert np.count_nonzero(small & (mean >= 20)) >= 20  # resolved
        outside = np.flatnonzero((observed < lo) | (observed > hi))
        assert outside.size == 0, (outside, observed[outside], mean[outside])


class TestConditionalOracle:
    def test_normalised(self):
        theta = np.array([2, 0, 1])
        phi_col = np.array([3, 1, 2])
        totals = np.array([10, 5, 7])
        p = conditional_distribution(theta, phi_col, totals, 0, 0.5, 0.01, 20)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p >= 0)

    def test_rejects_unrepresented_topic(self):
        with pytest.raises(ValueError, match="not represented"):
            conditional_distribution(
                np.array([0, 1]), np.array([1, 1]), np.array([1, 1]),
                0, 0.5, 0.01, 5,
            )


# ---------------------------------------------------------------------------
# Exact-arithmetic draw oracle
# ---------------------------------------------------------------------------

#: a token whose exact target lies closer than this (relative to the
#: bucket's total) to a boundary is a knife edge: float rounding may
#: legitimately move its draw
_KNIFE_EDGE = 1e-9


def _exact_replay(cs, phi, topic_totals, alpha, beta, rng):
    """Replay one ``sample_chunk`` call in exact rational arithmetic.

    The three uniform streams are redrawn from a deep copy of ``rng``
    exactly as the kernel draws them (``u_sel``, ``t1``, ``t2``); every
    uniform is then an exact rational, and each token's S, Q, bucket and
    draw follow Eq. 1 with its own count excluded, in
    :class:`fractions.Fraction` arithmetic.  Returns the
    exact topics and, per token, the smallest distance of its exact
    targets from a boundary, relative to the total they split.
    """
    gen = deepcopy(rng)
    n = cs.chunk.num_tokens
    u_sel, t1, t2 = (gen.random(n) for _ in range(3))
    num_topics, num_words = phi.shape
    a, b = Fraction(alpha), Fraction(beta)
    b_v = b * num_words

    def p_star(k, v, own=0):
        return (int(phi[k, v]) - own + b) / (int(topic_totals[k]) - own + b_v)

    def first_above(prefix, target):
        return next(
            (j for j, c in enumerate(prefix) if c > target), len(prefix) - 1
        )

    def margin(prefix, target, total):
        return min(abs(target - c) for c in prefix) / total

    indptr, cols, counts = cs.theta.indptr, cs.theta.indices, cs.theta.data
    z_exact = np.empty(n, dtype=np.int64)
    margins = np.empty(n)
    for i in range(n):
        d, v = int(cs.chunk.token_docs[i]), int(cs.chunk.token_words[i])
        z = int(cs.topics[i])
        p_excl = p_star(z, v, own=1)
        row = range(int(indptr[d]), int(indptr[d + 1]))
        terms = [
            (int(counts[j]) - 1) * p_excl if int(cols[j]) == z
            else int(counts[j]) * p_star(int(cols[j]), v)
            for j in row
        ]
        p2_terms = [p_excl if k == z else p_star(k, v) for k in range(num_topics)]
        s, w = sum(terms), sum(p2_terms)
        u = Fraction(float(u_sel[i]))
        take_p1 = u * (s + a * w) < s
        edge = abs(u * (s + a * w) - s) / (s + a * w)
        if take_p1:
            prefix = list(accumulate(terms))
            target = Fraction(float(t1[i])) * s
            z_exact[i] = int(cols[row[first_above(prefix, target)]])
            edge = min(edge, margin(prefix, target, s))
        else:
            prefix = list(accumulate(p2_terms))
            target = Fraction(float(t2[i])) * w
            z_exact[i] = first_above(prefix, target)
            edge = min(edge, margin(prefix, target, w))
        margins[i] = float(edge)
    return z_exact, margins


def _pairs_of(cs):
    """(start, stop) of every run of tokens sharing a word and a document."""
    w = cs.chunk.token_words.astype(np.int64)
    d = cs.chunk.token_docs.astype(np.int64)
    new = np.flatnonzero((w[1:] != w[:-1]) | (d[1:] != d[:-1])) + 1
    bounds = np.concatenate(([0], new, [w.shape[0]]))
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


def _oracle_fixture():
    """Repeated pairs with mixed own topics, single-token documents, own
    topics in the first and last slot of their row, and p2 draws."""
    gen = np.random.default_rng(21)
    docs = [[int(x) for x in gen.integers(0, 6, 14)] * 2 for _ in range(6)]
    docs += [[3], [5], [0]]  # single-token documents
    docs += [gen.integers(0, 9, 5).tolist() for _ in range(8)]
    corpus = Corpus.from_token_lists(docs, num_words=9)
    cfg = TrainerConfig(num_topics=7, seed=8, alpha=0.3)
    return LdaState.initialize(corpus, cfg), cfg


def _rare_word_fixture():
    """A long single-word document ahead of short documents of a rare word.

    The long document's 3000 tokens form one (word, document) pair with
    row totals near 3000.  The rare word (the last word id, so its tokens
    come last) is assigned topic 0 only, and its short documents' other
    topics carry p* = beta / totals, so each rare token's S is a few
    times 1e-10.  A running prefix sum carried past the long document
    reaches about 9e6, whose float64 spacing is a large part of those S:
    their differences lose their digits, and draws go wrong.
    """
    num_topics = 8
    docs = [[0] * 3000] + [[9, 1, 2, 3] for _ in range(12)]
    corpus = Corpus.from_token_lists(docs, num_words=10)
    cfg = TrainerConfig(num_topics=num_topics, seed=0, alpha=1e-9, beta=1e-7)
    state = LdaState.initialize(corpus, cfg)
    cs = state.chunks[0]
    w = cs.chunk.token_words.astype(np.int64)
    ramp = np.arange(w.shape[0])
    z = np.where(w == 0, ramp % num_topics, 1 + ramp % (num_topics - 1))
    z[w == 9] = 0
    cs.topics = z.astype(cs.topics.dtype)
    cs.rebuild_theta(num_topics)
    state.phi[...] = 0
    np.add.at(state.phi, (z, w), 1)
    state.topic_totals[...] = state.phi.sum(axis=1, dtype=np.int64)
    return state, cfg


class TestExactOracle:
    """Every float64 draw equals the draw of exact rational arithmetic on
    the same uniforms (POPACheck-style exact checking on small finite
    instances), and no token of these fixtures sits on a knife edge."""

    @pytest.fixture(scope="class")
    def mixed(self):
        return _oracle_fixture()

    def _check(self, state, cfg, seed, tile=None, workspace=Workspace):
        cs = state.chunks[0]
        rng = np.random.default_rng(seed)
        z_exact, margins = _exact_replay(
            cs, state.phi, state.topic_totals, cfg.effective_alpha,
            cfg.effective_beta, rng,
        )
        with mock.patch.object(sampler_mod, "_TILE", tile or sampler_mod._TILE):
            res = sample_chunk(
                cs.chunk, cs.topics, cs.theta, state.phi, state.topic_totals,
                cfg.effective_alpha, cfg.effective_beta, rng,
                workspace=workspace(),
            )
        assert int(np.count_nonzero(margins < _KNIFE_EDGE)) == 0
        diff = np.flatnonzero(res.new_topics.astype(np.int64) != z_exact)
        assert diff.size == 0, (
            f"{diff.size} draws differ from exact arithmetic, first at "
            f"token {diff[0]}"
        )
        return res

    def test_fixture_covers_the_cases(self, mixed):
        state, _ = mixed
        cs = state.chunks[0]
        runs = [(a, b) for a, b in _pairs_of(cs) if b - a >= 3]
        assert any(len(set(cs.topics[a:b].tolist())) > 1 for a, b in runs)
        docs = cs.chunk.token_docs.astype(np.int64)
        lens = cs.theta.row_lengths()
        assert np.any(np.bincount(docs) == 1)  # single-token documents
        dense = cs.theta.to_dense()
        z = cs.topics.astype(np.int64)
        assert np.any(dense[docs, z] == 1)  # theta_dz = 1
        slot = np.array([
            np.searchsorted(cs.theta.indices[cs.theta.indptr[d]:cs.theta.indptr[d + 1]], k)
            for d, k in zip(docs, z)
        ])
        assert np.any(slot == 0) and np.any((slot == lens[docs] - 1) & (lens[docs] > 1))

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_fixture(self, mixed, seed):
        state, cfg = mixed
        res = self._check(state, cfg, seed)
        assert res.stats.num_p1_draws > 0 and res.stats.num_p2_draws > 0

    @pytest.mark.parametrize("tile", [1, 7, 64])
    def test_several_tiles(self, mixed, tile):
        state, cfg = mixed
        assert _sum_kd(state.chunks[0]) > 4 * tile
        self._check(state, cfg, seed=11, tile=tile)

    def test_workspace_free_kernel(self, mixed):
        state, cfg = mixed
        self._check(state, cfg, seed=3, workspace=lambda: None)

    def test_single_present_word(self):
        """Wp = 1, K >= 8: the one shape where NumPy's axis-0 sum is a
        pairwise reduction; P_w is the prefix's last row instead."""
        gen = np.random.default_rng(2)
        docs = [[0] * int(m) for m in gen.integers(1, 12, 10)]
        corpus = Corpus.from_token_lists(docs, num_words=1)
        cfg = TrainerConfig(num_topics=12, seed=3, alpha=0.4)
        state = LdaState.initialize(corpus, cfg)
        for seed in range(4):
            res = self._check(state, cfg, seed)
        assert res.stats.num_p2_draws > 0

    def test_long_document_ahead_of_a_rare_word(self):
        """The fixture a chunk-wide running prefix sum gets wrong."""
        state, cfg = _rare_word_fixture()
        res = self._check(state, cfg, seed=0)
        assert res.stats.num_p1_draws > 0
