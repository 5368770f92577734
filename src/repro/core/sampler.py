"""The CuLDA_CGS sampling kernel (Algorithm 2, Sections 6.1.1-6.1.3).

One chunk pass reassigns a topic to every token of the chunk against the
chunk-start model snapshot, with the token's **own** current assignment
excluded from the counts (proper CGS exclusion).  The decomposition of
Eq. 6/8 is used throughout:

    p*(k)  = (phi[k,v] + beta) / (topic_totals[k] + beta*V)
    p1(k)  = theta[d,k] * p*(k)          (sparse: Kd non-zeros)
    p2(k)  = alpha * p*(k)               (dense: K entries, shared per word)
    S = sum_k p1(k),  Q = sum_k p2(k)

A draw takes bucket p1 with probability ``S / (S + Q)``; inside a bucket
the draw is a prefix-sum search (the Figure 5 index tree).

Mapping to the paper's GPU execution
------------------------------------
The paper runs one warp per token-sampler, 32 samplers per thread block,
all samplers of a block on tokens of the *same word* so they share the
p*(k)/p2 index tree in shared memory.  The SIMD expression of that design
in NumPy is *word-batched vectorization*: every per-word quantity (p*,
its prefix sums) is computed once per word, and every per-token quantity
is a vector op over all tokens at once.  All searches are
``searchsorted`` over prefix sums — bit-identical to the index-tree
descent (see :mod:`repro.core.tree` and its equivalence tests).  The
shared p* is also kept word-major (one contiguous K-row per word), so
the sum-Kd theta walk of every token reads a single row of it — the
NumPy form of all samplers of a block reading one shared p* column.
That walk is the one per-token step cut into blocks, as the paper cuts a
chunk's tokens into thread blocks: it runs over token tiles sized so a
tile's working set stays in cache.

Exclusion adjustment
--------------------
Excluding token ``j``'s own count changes the snapshot quantities in O(1)
places: ``phi[z_j, v] -= 1``, ``topic_totals[z_j] -= 1`` and
``theta[d_j, z_j] -= 1``.  Each affects only the ``z_j`` entry of p*(k) /
p1(k), so S, Q and both prefix-sum searches are corrected with
constant-time per-token adjustments (a shifted-CDF three-case search for
p2, a single-entry rewrite for p1) — never a per-token rebuild of the
shared structures.  This is exactly why the block-shared tree is sound.

Workspace reuse and compute dtype
---------------------------------
The K x Wp shared trees and the per-token vectors are drawn from a
:class:`repro.perf.Workspace` when one is passed, so steady-state
iterations reuse buffers instead of reallocating them — the NumPy
analogue of the static device buffers a real GPU kernel would use.  The
sum-Kd theta walk never materialises chunk-wide: it runs over token
tiles of about ``_TILE`` gather slots (the paper's thread blocks of
Section 6.1), so the pool holds one tile-sized prefix-sum buffer and
nothing that scales with sum-Kd.  A tile's positions, p* index and
gathered values are fresh tile-sized arrays: the gathers are
bounds-checked ``np.take`` results over ``intp`` indices, because NumPy
converts any other index dtype to an ``intp`` copy first and stages a
checked take into an ``out=`` buffer through a temporary.
Chunk-invariant data (present words, token->word-column map) is
memoised per chunk inside the workspace, mirroring the paper's one-time
CPU preprocessing.  With ``workspace=None`` (or any float64 workspace)
the arithmetic is **bit-identical** to the historical allocating kernel
(asserted by tests/test_golden_regression.py).  A float32 workspace
selects the opt-in reduced-precision path: same algorithm, half the
bandwidth, a different but statistically equivalent chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.costs import SamplingStats, tree_depth_for
from repro.core.sparse import CsrCounts
from repro.corpus.encoding import DeviceChunk
from repro.perf import Workspace

#: dtype instances for hot-path Workspace.take calls (no per-call np.dtype())
_I64 = np.dtype(np.int64)
_BOOL = np.dtype(np.bool_)
_INTP = np.dtype(np.intp)
_F64 = np.dtype(np.float64)

#: sum-Kd entries per token tile of the theta walk (chosen by measurement:
#: a tile's temporaries stay in L2)
_TILE = 1 << 16


@dataclass(frozen=True)
class SampleResult:
    """Output of one chunk sampling pass."""

    new_topics: np.ndarray  # same dtype/order as the input topics
    stats: SamplingStats


def _fill_random(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """``rng.random`` into a preallocated buffer (dtype-matched)."""
    rng.random(out=out, dtype=out.dtype.type)
    return out


def sample_chunk(
    chunk: DeviceChunk,
    topics: np.ndarray,
    theta: CsrCounts,
    phi: np.ndarray,
    topic_totals: np.ndarray,
    alpha: float,
    beta: float,
    rng: np.random.Generator,
    workspace: Workspace | None = None,
) -> SampleResult:
    """Sample a new topic for every token of ``chunk``.

    Parameters
    ----------
    chunk:
        Word-first encoded chunk (see :mod:`repro.corpus.encoding`).
    topics:
        Current topic per token, aligned with the chunk's token order.
        The input array is not modified.
    theta:
        The chunk's document-topic CSR, consistent with ``topics``.
    phi, topic_totals:
        The device's model replica (consistent with the union of all
        chunk assignments it has seen — the chunk-start snapshot).
    alpha, beta:
        Hyper-parameters of Eq. 1.
    rng:
        Per-(iteration, chunk) generator from :class:`~repro.core.rng.RngPool`.
    workspace:
        Optional :class:`~repro.perf.Workspace` supplying reusable
        buffers and the compute dtype.  ``None`` allocates fresh float64
        buffers (identical results, more allocator churn).

    Returns
    -------
    SampleResult
        New topics plus the measured statistics that drive cost accounting.
    """
    n = chunk.num_tokens
    num_topics, num_words = phi.shape
    if topics.shape[0] != n:
        raise ValueError("topics length must equal chunk token count")
    if theta.num_rows != chunk.num_local_docs or theta.num_cols != num_topics:
        raise ValueError("theta shape inconsistent with chunk/model")
    if topic_totals.shape[0] != num_topics:
        raise ValueError("topic_totals length must be K")
    if n == 0:
        return SampleResult(
            new_topics=topics.copy(),
            stats=SamplingStats(0, 0, 0, 0, 0, 0, num_topics, tree_depth_for(num_topics)),
        )

    ws = workspace if workspace is not None else Workspace()
    beta_v = beta * num_words

    # ---- chunk-invariant data (CPU preprocessing, done once per chunk) ---
    def _build_static():
        words64 = chunk.token_words.astype(np.int64)
        docs64 = chunk.token_docs.astype(np.int64)
        spans = np.diff(chunk.word_offsets)
        present = np.nonzero(spans)[0]
        counts_present = spans[present]
        # token -> present-word column index (tokens are word-first sorted).
        wcol = np.repeat(
            np.arange(present.shape[0], dtype=np.int64), counts_present
        )
        for a in (words64, docs64, present, wcol):
            a.setflags(write=False)
        return words64, docs64, present, wcol

    words, docs, present, wcol = ws.memo(
        ("chunk-static", int(chunk.spec.chunk_id)), _build_static
    )
    wp = present.shape[0]

    z_old = ws.take("z_old", n, _I64)
    np.copyto(z_old, topics, casting="safe")

    # ---- per-word shared structures (the block-shared p* tree) ----------
    denom = ws.take("denom", num_topics)
    np.add(topic_totals, beta_v, out=denom, casting="same_kind")  # K
    phi_g = ws.take("phi_gather", (num_topics, wp), phi.dtype)
    np.take(phi, present, axis=1, out=phi_g)
    # p_sub[k, c] = p*(k) for present word c; one column per word.
    p_sub = ws.take("p_sub", (num_topics, wp))
    np.add(phi_g, beta, out=p_sub, casting="same_kind")
    np.divide(p_sub, denom[:, None], out=p_sub)
    # word-major copy: a token's theta walk reads one contiguous K-row
    p_wm = ws.take("p_star_wm", (wp, num_topics))
    np.copyto(p_wm, p_sub.T)
    p_w = ws.take("p_w", wp)  # per-word total P = sum_k p*(k)
    np.sum(p_sub, axis=0, out=p_w)
    cdf_sub = ws.take("cdf_sub", (num_topics, wp))  # K x Wp prefix sums
    np.cumsum(p_sub, axis=0, out=cdf_sub)
    # Column-major flattened, per-column normalised CDF for one-shot
    # vectorised per-column searches (the SIMD index-tree descent).
    norm = ws.take("norm_cdf", (num_topics, wp))
    np.divide(cdf_sub, p_w[None, :], out=norm)
    flat2d = ws.take("flat_cdf", (wp, num_topics))
    np.copyto(flat2d, norm.T)
    np.add(flat2d, ws.arange(wp)[:, None], out=flat2d, casting="same_kind")
    flat_cdf = flat2d.reshape(-1)

    # ---- per-token exclusion scalars ------------------------------------
    tokflat = ws.take("tok_flat_idx", n, _I64)
    np.multiply(z_old, num_words, out=tokflat)
    np.add(tokflat, words, out=tokflat)
    phi_zv = ws.take("phi_zv", n, phi.dtype)
    np.take(phi.reshape(-1), tokflat, out=phi_zv)
    tot_z = ws.take("tot_z", n, topic_totals.dtype)
    np.take(topic_totals, z_old, out=tot_z)
    p_star_z = ws.take("p_star_z", n)
    den_z = ws.take("den_z", n)
    np.add(phi_zv, beta, out=p_star_z, casting="same_kind")
    np.add(tot_z, beta_v, out=den_z, casting="same_kind")
    np.divide(p_star_z, den_z, out=p_star_z)
    p_z_excl = ws.take("p_z_excl", n)
    np.subtract(phi_zv, 1.0, out=p_z_excl, casting="same_kind")
    np.add(p_z_excl, beta, out=p_z_excl)
    np.subtract(tot_z, 1.0, out=den_z, casting="same_kind")
    np.add(den_z, beta_v, out=den_z)
    np.divide(p_z_excl, den_z, out=p_z_excl)

    # ---- each token's theta row: where it starts, how long it is --------
    starts = ws.take("row_starts", n, _I64)
    np.take(theta.indptr, docs, out=starts)
    lens = ws.take("row_lens", n, _I64)
    np.take(theta.indptr[1:], docs, out=lens)
    np.subtract(lens, starts, out=lens)
    seg_offsets = ws.take("seg_offsets", n + 1, _I64)
    seg_offsets[0] = 0
    np.cumsum(lens, out=seg_offsets[1:])
    total_nnz = int(seg_offsets[-1])

    # Locate each token's own (d, z_old) entry in theta itself (theta-nnz
    # keys, not sum-Kd ones): columns are sorted within rows, so the
    # row-major keys d*K + k are sorted.
    tkeys = np.repeat(
        np.arange(theta.num_rows, dtype=np.intp) * num_topics,
        np.diff(theta.indptr),
    )
    np.add(tkeys, theta.indices, out=tkeys)
    targets_z = ws.take("targets_z", n, _I64)
    np.multiply(docs, num_topics, out=targets_z)
    np.add(targets_z, z_old, out=targets_z)
    tpos = np.searchsorted(tkeys, targets_z)
    if tpos.max(initial=-1) >= tkeys.shape[0] or not np.array_equal(
        tkeys[tpos], targets_z
    ):
        raise AssertionError(
            "token's current topic missing from its theta row — theta is "
            "out of sync with the topic assignments"
        )

    # ---- compute Q (shared P with O(1) exclusion fix) --------------------
    pw_tok = ws.take("pw_tok", n)
    np.take(p_w, wcol, out=pw_tok)
    w2 = ws.take("w2", n)
    np.subtract(pw_tok, p_star_z, out=w2)
    np.add(w2, p_z_excl, out=w2)
    q = ws.take("q", n)
    np.multiply(w2, alpha, out=q)

    # The three uniform streams, drawn up front in their stream order.
    u_sel = _fill_random(rng, ws.take("u_sel", n))
    t1 = _fill_random(rng, ws.take("t1", n))
    t2 = _fill_random(rng, ws.take("t2", n))

    # ---- compute S and draw from p1, one token tile at a time -----------
    # The sum-Kd gather space: token i's segment [seg_offsets[i],
    # seg_offsets[i+1]) holds its theta row, so slot j of it reads theta
    # entry pos[j] = off[i] + j.  Segment offsets are strictly increasing
    # because the check above proved every token's row holds at least its
    # own topic.  The space is walked in tiles of about _TILE slots cut at
    # token boundaries (the paper's thread blocks), so each tile's
    # temporaries stay in cache and no array scales with sum-Kd.  Tiling
    # changes no arithmetic:
    # - each tile's prefix sums are seeded with the previous tile's last
    #   one, and ``add.accumulate`` is sequential, so they are the float
    #   adds of one chunk-wide cumsum in the same order;
    # - a token's segment lies inside its tile and the prefix sums never
    #   decrease, so the p1 search clipped to the segment finds what a
    #   chunk-wide search would.
    adj = ws.take("w1_adj", n)  # the own entry's p1 term, count excluded
    np.subtract(np.take(theta.data, tpos), 1.0, out=adj, casting="same_kind")
    np.multiply(adj, p_z_excl, out=adj)
    off = ws.take("pos_offset", n, _I64)
    np.subtract(starts, seg_offsets[:-1], out=off)
    pos_z = np.subtract(tpos, off, out=tpos)  # slot of the own entry
    wcol_k = ws.take("wcol_k", n, _I64)
    np.multiply(wcol, num_topics, out=wcol_k)
    # theta's entries widened once (theta-nnz work), so the per-tile
    # ufuncs need no casts.  The multiply promoted the integer counts to
    # float64 before, so the products do not change.
    cols = ws.take("theta_cols", theta.nnz, _INTP)
    np.copyto(cols, theta.indices, casting="safe")
    vals = ws.take("theta_vals", theta.nnz, _F64)
    np.copyto(vals, theta.data, casting="safe")

    # Tile t starts at the token whose segment holds slot t*_TILE.
    cuts = np.searchsorted(
        seg_offsets, ws.arange(-(-total_nnz // _TILE)) * _TILE, side="right"
    )
    cuts = np.append(np.unique(cuts - 1), n)
    tile_ends = seg_offsets[cuts]
    ramp = ws.arange(int(np.diff(tile_ends).max()))
    gcs = ws.take("gcs_tile", ramp.shape[0] + 1)
    s = ws.take("s", n)
    base = ws.take("s_base", n)
    z_p1 = ws.take("z_p1", n, _INTP)
    p_wm_flat = p_wm.reshape(-1)
    carry = 0.0
    for i0, i1, j0, j1 in zip(
        cuts[:-1].tolist(), cuts[1:].tolist(),
        tile_ends[:-1].tolist(), tile_ends[1:].tolist(),
    ):
        m = j1 - j0
        lens_t = lens[i0:i1]
        pos = np.repeat(off[i0:i1] + j0, lens_t)
        np.add(pos, ramp[:m], out=pos)
        # flat[j] = wcol[i]*K + col: token i's theta columns read from
        # the word-major p* row of its word (one contiguous K-row).
        flat = np.repeat(wcol_k[i0:i1], lens_t)
        np.add(flat, np.take(cols, pos), out=flat)
        # Bounds-checked gathers without ``out=``: a ``mode='raise'``
        # take into an out buffer is staged through a temporary copy.
        gcs_t = gcs[: m + 1]
        w1 = gcs_t[1:]
        np.multiply(np.take(p_wm_flat, flat), np.take(vals, pos), out=w1)
        w1[pos_z[i0:i1] - j0] = adj[i0:i1]
        # One prefix sum serves both the segment totals S and the
        # bucket-1 search below (the per-warp tree, built once).
        gcs_t[0] = carry
        np.add.accumulate(gcs_t, out=gcs_t)
        carry = gcs_t[m]

        seg = seg_offsets[i0:i1 + 1] - j0
        s_t, base_t, t1_t = s[i0:i1], base[i0:i1], t1[i0:i1]
        np.take(gcs_t, seg[1:], out=s_t)
        np.take(gcs_t, seg[:-1], out=base_t)
        np.subtract(s_t, base_t, out=s_t)
        np.maximum(s_t, 0.0, out=s_t)  # guard cancellation noise
        # p1 draw: prefix-sum search in the private (per-warp) tree
        np.multiply(t1_t, s_t, out=t1_t)
        np.add(base_t, t1_t, out=t1_t)
        pos1 = np.searchsorted(w1, t1_t, side="right")
        np.clip(pos1, seg[:-1], seg[1:] - 1, out=pos1)
        np.take(cols, np.take(pos, pos1), out=z_p1[i0:i1])

    # ---- bucket choice: u < S / (S + Q)  (Algorithm 2 line 6) ------------
    tmp_n = ws.take("tmp_n", n)
    np.add(s, q, out=tmp_n)
    np.multiply(u_sel, tmp_n, out=tmp_n)
    take_p1 = ws.take("take_p1", n, _BOOL)
    np.less(tmp_n, s, out=take_p1)

    # ---- draw from p2: shifted-CDF search in the shared tree -------------
    # The exclusion changes one atom (z_old: p_star_z -> p_z_excl), which
    # shifts the CDF by delta for all k >= z_old.  Split the target into
    # three cases instead of rebuilding the shared tree per token.
    np.multiply(t2, w2, out=t2)
    cbz_idx = tokflat  # tokflat is dead past this point; reuse it
    np.multiply(z_old, wp, out=cbz_idx)
    np.add(cbz_idx, wcol, out=cbz_idx)
    cbz = ws.take("cdf_before_z", n)
    np.take(cdf_sub.reshape(-1), cbz_idx, out=cbz)
    np.subtract(cbz, p_star_z, out=cbz)
    case_a = ws.take("case_a", n, _BOOL)
    np.less(t2, cbz, out=case_a)
    np.add(cbz, p_z_excl, out=tmp_n)
    case_b = ws.take("case_b", n, _BOOL)
    np.less(t2, tmp_n, out=case_b)
    not_a = ws.take("not_a", n, _BOOL)
    np.logical_not(case_a, out=not_a)
    np.logical_and(case_b, not_a, out=case_b)
    target = ws.take("p2_target", n)
    np.subtract(t2, p_z_excl, out=target)
    np.add(target, p_star_z, out=target)
    np.copyto(target, t2, where=case_a)
    # guard: keep targets strictly inside (0, P) for the normalised search
    np.nextafter(pw_tok, 0.0, out=tmp_n)
    np.minimum(target, tmp_n, out=target)
    np.maximum(target, 0.0, out=target)
    np.divide(target, pw_tok, out=target)
    np.add(target, wcol, out=target, casting="same_kind")
    pos2 = np.searchsorted(flat_cdf, target, side="right")
    base2 = ws.take("p2_base", n, _I64)
    np.multiply(wcol, num_topics, out=base2)
    np.subtract(pos2, base2, out=pos2)
    np.clip(pos2, 0, num_topics - 1, out=pos2)
    np.copyto(pos2, z_old, where=case_b)

    z_new = np.where(take_p1, z_p1, pos2)  # fresh: this is the output

    stats = SamplingStats(
        num_tokens=n,
        sum_kd=int(lens.sum()),
        sum_kd_p1=int(lens[take_p1].sum()),
        num_p1_draws=int(take_p1.sum()),
        num_p2_draws=int(n - take_p1.sum()),
        num_blocks=chunk.block_plan.num_blocks,
        num_topics=num_topics,
        tree_depth=tree_depth_for(num_topics),
    )
    return SampleResult(new_topics=z_new.astype(topics.dtype), stats=stats)


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

    Dense reference used by statistical tests to validate the vectorised
    sampler: exclude the token's own count, then
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
