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
is a vector op over all tokens at once.  All searches are prefix-sum
searches — ``searchsorted`` for p2, a branchless vectorised binary
search for p1 — equivalent to the index-tree descent (see
:mod:`repro.core.tree` and its equivalence tests).  The shared p* is kept
word-major (one contiguous K-row per word).

The sum-Kd theta walk goes one step further than per-word sharing.  In
the word-first token order the tokens of one (word, document) **pair**
are adjacent and see the same theta row and the same p* row, apart from
their own count.  So the walk runs once per pair, not once per token:
each pair's row of products theta[d, k] * p*(k) is prefix-summed from 0,
and every token of the pair reads S and its p1 draw from that one row.
Pairs are regrouped by document and documents ordered by row length, so
the walk is a sequence of dense (pairs x Kd) blocks cut into tiles of
about ``_TILE`` slots — the NumPy form of the paper's thread blocks, each
tile's working set in cache.  A block reads each document's theta row
once and broadcasts it over the document's pairs.

Exclusion adjustment
--------------------
Excluding token ``j``'s own count changes the snapshot quantities in O(1)
places: ``phi[z_j, v] -= 1``, ``topic_totals[z_j] -= 1`` and
``theta[d_j, z_j] -= 1``.  Each affects only the ``z_j`` entry of p*(k) /
p1(k), so nothing shared is ever rebuilt per token:

- S_j = S_pair - theta[d, z]*p*(z) + (theta[d, z] - 1)*p*_excl(z), from
  the pair's shared total, clamped at 0;
- Q_j = alpha * (P_w - p*(z) + p*_excl(z)), from the word's shared total;
- both draws are a three-case shifted-CDF search of the shared prefix
  sums: a target before the own slot searches them as they are, one that
  falls in the own slot's reduced atom takes it, and one past it is
  shifted by the atom's change and searched again.

This is exactly why the block-shared tree is sound.  Each token's S and
prefix sums come from sums that start at 0 on its own pair, so their
rounding error is relative to its own row; ``tests/test_sampler.py``
checks every draw on small instances against exact rational arithmetic
on the same uniforms.

Workspace reuse and compute dtype
---------------------------------
The K x Wp shared trees and the per-token vectors are drawn from a
:class:`repro.perf.Workspace` when one is passed, so steady-state
iterations reuse buffers instead of reallocating them — the NumPy
analogue of the static device buffers a real GPU kernel would use.  The
trees take three K x Wp float buffers besides the gathered phi columns:
``cdf_sub`` holds p* and then, in place, its prefix sums over k (its
last row is P_w); ``p_star_wm`` is the word-major copy of p*; and
``flat_cdf`` is the transposed CDF normalised by P_w.  The row-by-row
prefix adds are the same float operations as ``np.cumsum`` over axis 0.
The pair walk never materialises chunk-wide: a tile's gathers, products
and prefix sums are fresh tile-sized arrays, and nothing pooled scales
with sum-Kd.  The gathers are bounds-checked ``np.take`` results over
``intp`` indices, because NumPy converts any other index dtype to an
``intp`` copy first and stages a checked take into an ``out=`` buffer
through a temporary.  Chunk-invariant data (present words, token->word-column map,
pair boundaries) is memoised per chunk inside the workspace, mirroring
the paper's one-time CPU preprocessing.  With ``workspace=None`` (or any
float64 workspace) the arithmetic is identical to the float64 workspace
kernel (asserted by tests/test_golden_regression.py); the tile size
never changes a draw.  A float32 workspace selects the opt-in
reduced-precision path: same algorithm, half the bandwidth, a different
but statistically equivalent chain.
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

#: pair-walk slots per tile of the theta walk (chosen by measurement:
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

    def _build_pairs():
        # A pair is a run of adjacent tokens sharing a word and a document
        # (the stable word-first sort keeps document order within a word).
        # Pairs are listed grouped by document; doc_ptr is a CSR over them.
        first = np.ones(n, dtype=bool)
        np.not_equal(words[1:], words[:-1], out=first[1:])
        first[1:] |= docs[1:] != docs[:-1]
        first = np.flatnonzero(first)
        ntok = np.diff(first, append=n)
        by_doc = np.argsort(docs[first], kind="stable")
        ptr = np.zeros(chunk.num_local_docs + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(docs[first], minlength=chunk.num_local_docs), out=ptr[1:]
        )
        out = (first[by_doc], ntok[by_doc], wcol[first][by_doc], ptr)
        for a in out:
            a.setflags(write=False)
        return out

    pair_first, pair_ntok, pair_wcol, doc_ptr = ws.memo(
        ("chunk-pairs", int(chunk.spec.chunk_id)), _build_pairs
    )
    num_pairs = pair_first.shape[0]

    z_old = ws.take("z_old", n, _I64)
    np.copyto(z_old, topics, casting="safe")

    # ---- per-word shared structures (the block-shared p* tree) ----------
    denom = ws.take("denom", num_topics)
    np.add(topic_totals, beta_v, out=denom, casting="same_kind")  # K
    phi_g = ws.take("phi_gather", (num_topics, wp), phi.dtype)
    np.take(phi, present, axis=1, out=phi_g)
    # cdf_sub[k, c] = p*(k) for present word c; one column per word.
    cdf_sub = ws.take("cdf_sub", (num_topics, wp))
    np.add(phi_g, beta, out=cdf_sub, casting="same_kind")
    np.divide(cdf_sub, denom[:, None], out=cdf_sub)
    # word-major copy: a token's theta walk reads one contiguous K-row
    p_wm = ws.take("p_star_wm", (wp, num_topics))
    np.copyto(p_wm, cdf_sub.T)
    # K x Wp prefix sums over k, in place: the same row-by-row adds as
    # np.cumsum(axis=0); the last row is the per-word total
    # P = sum_k p*(k).
    for k in range(1, num_topics):
        np.add(cdf_sub[k - 1], cdf_sub[k], out=cdf_sub[k])
    p_w = cdf_sub[num_topics - 1]
    # Column-major flattened, per-column normalised CDF for one-shot
    # vectorised per-column searches (the SIMD index-tree descent).
    flat2d = ws.take("flat_cdf", (wp, num_topics))
    np.divide(cdf_sub.T, p_w[:, None], out=flat2d)
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

    # ---- locate each token's own (d, z_old) entry in theta --------------
    # A dense (local document, topic) -> theta position table: theta-nnz
    # bounds-checked writes and one n-sized gather, no search.
    indptr = theta.indptr
    tkeys = np.repeat(
        np.arange(theta.num_rows, dtype=np.intp) * num_topics, np.diff(indptr)
    )
    np.add(tkeys, theta.indices, out=tkeys)
    theta_at = ws.take("theta_at", theta.num_rows * num_topics, _INTP)
    theta_at.fill(-1)
    theta_at[tkeys] = ws.arange(theta.nnz)
    targets_z = ws.take("targets_z", n, _I64)
    np.multiply(docs, num_topics, out=targets_z)
    np.add(targets_z, z_old, out=targets_z)
    tpos = np.take(theta_at, targets_z)
    if tpos.min() < 0:
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

    # ---- the own entry's p1 term, with and without its own count --------
    # theta's entries widened once (theta-nnz work), so the walk's ufuncs
    # need no casts.
    cols = ws.take("theta_cols", theta.nnz, _INTP)
    np.copyto(cols, theta.indices, casting="safe")
    vals = ws.take("theta_vals", theta.nnz)
    np.copyto(vals, theta.data, casting="same_kind")
    theta_z = ws.take("theta_z", n)
    np.take(vals, tpos, out=theta_z)
    adj = ws.take("p1_own_excl", n)  # (theta[d, z] - 1) * p*_excl(z)
    np.subtract(theta_z, 1.0, out=adj)
    np.multiply(adj, p_z_excl, out=adj)
    # the walk's own term theta[d, z] * p*(z), less its excluded value
    delta = np.multiply(theta_z, p_star_z, out=theta_z)
    np.subtract(delta, adj, out=delta)
    slot = np.subtract(tpos, np.take(indptr, docs), out=tpos)  # own slot

    # ---- walk each (word, document) pair's theta row once ---------------
    # Pairs are walked document by document, documents ordered by row
    # length, so a tile is a dense block of pair rows: row p holds pair p's theta row
    # (padded with zero terms to the tile's widest row) times its word's
    # p* row, and one row-wise prefix sum per pair, started at 0, serves
    # every token of the pair.  Per-token inputs are permuted into that
    # order once, so a tile's tokens are one contiguous slice.
    row_len = np.diff(indptr)
    doc_npairs = np.diff(doc_ptr)
    doc_rank = np.argsort(row_len, kind="stable")
    doc_rank = doc_rank[np.take(doc_npairs, doc_rank) > 0]  # docs with tokens
    npd = np.take(doc_npairs, doc_rank)
    ramp = ws.arange(max(n, num_topics))
    order = np.repeat(np.take(doc_ptr, doc_rank) - (np.cumsum(npd) - npd), npd)
    np.add(order, ramp[:num_pairs], out=order)
    order_len = np.repeat(np.take(row_len, doc_rank), npd)
    order_doc = np.repeat(ramp[:doc_rank.shape[0]], npd)  # index into doc_rank
    ntok = np.take(pair_ntok, order)
    tok_ptr = np.zeros(num_pairs + 1, dtype=np.int64)
    np.cumsum(ntok, out=tok_ptr[1:])
    tok_order = np.repeat(np.take(pair_first, order) - tok_ptr[:-1], ntok)
    np.add(tok_order, ramp[:n], out=tok_order)
    tok_row = np.repeat(ramp[:num_pairs], ntok)  # the token's pair row
    kd_o = np.repeat(order_len, ntok)
    delta_o, adj_o = np.take(delta, tok_order), np.take(adj, tok_order)
    q_o, u_o = np.take(q, tok_order), np.take(u_sel, tok_order)
    t1_o, slot_o = np.take(t1, tok_order), np.take(slot, tok_order)
    take_o = np.empty(n, dtype=bool)
    z_o = np.empty(n, dtype=np.intp)

    # Tile t ends at the pair whose row holds slot t*_TILE of the
    # (unpadded) pair-walk space.
    walk_ends = np.cumsum(order_len)
    num_tiles = -(-int(walk_ends[-1]) // _TILE)
    cuts = np.searchsorted(walk_ends, np.arange(1, num_tiles) * _TILE) + 1
    cuts = np.unique(np.concatenate(([0], cuts, [num_pairs]))).tolist()
    pair_wk = np.multiply(np.take(pair_wcol, order), num_topics)
    p_wm_flat = p_wm.reshape(-1)
    for a, b in zip(cuts[:-1], cuts[1:]):
        rows = b - a
        width = int(order_len[b - 1])
        span = width + 1
        # the tile's documents: each one's theta row once, padded to the
        # tile width with its last entry and a zero count
        d0, d1 = int(order_doc[a]), int(order_doc[b - 1]) + 1
        rdoc = order_doc[a:b] - d0
        udoc = doc_rank[d0:d1]
        rs = np.take(indptr, udoc)
        kd_doc = np.take(row_len, udoc)
        pos = np.minimum(
            np.add.outer(rs, ramp[:width]), (rs + kd_doc - 1)[:, None]
        )
        dvals = np.take(vals, pos)
        dvals[np.less_equal(kd_doc[:, None], ramp[:width])] = 0.0
        flat = np.take(np.take(cols, pos), rdoc, axis=0)
        np.add(flat, pair_wk[a:b, None], out=flat)
        # Bounds-checked gathers without ``out=``: a ``mode='raise'``
        # take into an out buffer is staged through a temporary copy.
        r = np.take(p_wm_flat, flat)
        np.multiply(r, np.take(dvals, rdoc, axis=0), out=r)
        # c[p, j]: pair p's prefix sum before slot j (c[p, 0] = 0)
        c = np.empty((rows, span), r.dtype)
        c[:, 0] = 0.0
        np.cumsum(r, axis=1, out=c[:, 1:])
        c_flat = c.reshape(-1)

        # Each token's S: its pair's total with the own term swapped for
        # its count-excluded value.
        ta, tb = int(tok_ptr[a]), int(tok_ptr[b])
        trow = np.multiply(tok_row[ta:tb] - a, span)
        s_t = np.take(c_flat, trow + width)
        np.subtract(s_t, delta_o[ta:tb], out=s_t)
        np.maximum(s_t, 0.0, out=s_t)  # guard cancellation noise
        # bucket choice: u < S / (S + Q)  (Algorithm 2 line 6)
        sel = np.add(s_t, q_o[ta:tb])
        np.multiply(sel, u_o[ta:tb], out=sel)
        take_t = np.less(sel, s_t, out=take_o[ta:tb])

        # p1 draw, for the tokens that take the p1 bucket: the same
        # three-case shifted-CDF search as the p2 draw, over the pair's
        # prefix sums.
        k = np.flatnonzero(take_t)
        kbase = np.take(trow, k)
        kslot = np.take(slot_o[ta:tb], k)
        target = np.take(t1_o[ta:tb], k)
        np.multiply(target, np.take(s_t, k), out=target)
        cbz = np.take(c_flat, kbase + kslot)
        case_a = np.less(target, cbz)
        np.add(cbz, np.take(adj_o[ta:tb], k), out=cbz)
        case_b = np.less(target, cbz)
        shifted = np.add(target, np.take(delta_o[ta:tb], k))
        np.copyto(shifted, target, where=case_a)
        # branchless search of the row: how many of c[p, 1..width] are
        # <= the target
        found = kbase.copy()
        last = kbase + width
        step = 1 << (width.bit_length() - 1)
        while step:
            cand = np.minimum(found + step, last)
            np.copyto(found, cand, where=np.take(c_flat, cand) <= shifted)
            step >>= 1
        np.subtract(found, kbase, out=found)
        np.minimum(found, np.take(kd_o[ta:tb], k) - 1, out=found)
        np.copyto(found, kslot, where=case_b & ~case_a)
        np.add(found, np.take(rs, np.take(rdoc, kbase // span)), out=found)
        z_o[ta + k] = np.take(cols, found)

    take_p1 = ws.take("take_p1", n, _BOOL)
    take_p1[tok_order] = take_o
    z_new = np.empty(n, dtype=topics.dtype)  # fresh: this is the output
    z_new[tok_order] = z_o
    sum_kd = int(kd_o.sum())
    sum_kd_p1 = int(kd_o[take_o].sum())

    # ---- draw from p2, for the p2 tokens: shifted-CDF search -------------
    # The exclusion changes one atom (z_old: p_star_z -> p_z_excl), which
    # shifts the CDF by delta for all k >= z_old.  Split the target into
    # three cases instead of rebuilding the shared tree per token.
    p2 = np.flatnonzero(~take_p1)
    if p2.shape[0]:
        z2, wc2 = np.take(z_old, p2), np.take(wcol, p2)
        psz, pze = np.take(p_star_z, p2), np.take(p_z_excl, p2)
        pw2 = np.take(pw_tok, p2)
        t2s = np.take(t2, p2)
        np.multiply(t2s, np.take(w2, p2), out=t2s)
        cbz = np.take(cdf_sub.reshape(-1), z2 * wp + wc2)
        np.subtract(cbz, psz, out=cbz)
        case_a = np.less(t2s, cbz)
        np.add(cbz, pze, out=cbz)
        case_b = np.less(t2s, cbz)
        np.logical_and(case_b, ~case_a, out=case_b)
        target = np.subtract(t2s, pze)
        np.add(target, psz, out=target)
        np.copyto(target, t2s, where=case_a)
        # guard: keep targets strictly inside (0, P) for the normalised search
        np.minimum(target, np.nextafter(pw2, 0.0), out=target)
        np.maximum(target, 0.0, out=target)
        np.divide(target, pw2, out=target)
        np.add(target, wc2, out=target, casting="same_kind")
        pos2 = np.searchsorted(flat_cdf, target, side="right")
        np.subtract(pos2, wc2 * num_topics, out=pos2)
        np.clip(pos2, 0, num_topics - 1, out=pos2)
        np.copyto(pos2, z2, where=case_b)
        z_new[p2] = pos2

    num_p1 = int(take_p1.sum())
    stats = SamplingStats(
        num_tokens=n,
        sum_kd=sum_kd,
        sum_kd_p1=sum_kd_p1,
        num_p1_draws=num_p1,
        num_p2_draws=n - num_p1,
        num_blocks=chunk.block_plan.num_blocks,
        num_topics=num_topics,
        tree_depth=tree_depth_for(num_topics),
    )
    return SampleResult(new_topics=z_new, stats=stats)


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
