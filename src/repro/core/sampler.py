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

Workspace reuse
---------------
The K x Wp shared trees and the few chunk-wide vectors are drawn from a
:class:`repro.perf.Workspace` when one is passed, so steady-state
iterations reuse buffers instead of reallocating them — the NumPy
analogue of the static device buffers a real GPU kernel would use.  The
trees take two K x Wp float buffers, both word-major: ``p_star_wm``
holds p*, and ``cdf_wm`` its prefix sums over k (its last column is
P_w).  The p2 search normalises each CDF entry it reads on the fly
(``entry / P_w + column``), so no normalised copy is kept.

Only four token-sized vectors are chunk-wide, all pooled: the three
uniform streams, drawn up front in their stream order, and each token's
own theta position, looked up (and checked for desync) before any tile.
Everything else a token needs — its exclusion scalars, bucket choice
and both draws — is computed inside the tile that walks its pair, in
walk order, so a tile's gathers, products, prefix sums and per-token
scalars are fresh tile-sized arrays and nothing else scales with the
chunk.  The gathers are bounds-checked ``np.take`` results over ``intp``
indices, because NumPy converts any other index dtype to an ``intp``
copy first and stages a checked take into an ``out=`` buffer through a
temporary.  Chunk-invariant data (present words, pair boundaries and
their word columns) is memoised per chunk inside the workspace,
mirroring the paper's one-time CPU preprocessing.  The kernel computes
in float64 only: the p2 search adds each word's integer column offset
to its normalised CDF, which would leave float32 12-13 bits for the CDF
near column 2000 (docs/PERFORMANCE.md, "One training dtype").  With
``workspace=None`` the arithmetic is identical to the workspace kernel
(asserted by tests/test_golden_regression.py); the tile size never
changes a draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.costs import SamplingStats, tree_depth_for
from repro.core.sparse import CsrCounts
from repro.corpus.encoding import DeviceChunk
from repro.perf import Workspace

#: dtype instance for hot-path Workspace.take calls (no per-call np.dtype())
_INTP = np.dtype(np.intp)

#: pair-walk slots per tile of the theta walk (chosen by measurement,
#: docs/PERFORMANCE.md "Per-token state per tile")
_TILE = 1 << 17

#: tokens per block of the own-slot lookup, which runs before any tile
_LOOKUP_BLOCK = 1 << 16


@dataclass(frozen=True)
class SampleResult:
    """Output of one chunk sampling pass."""

    new_topics: np.ndarray  # same dtype/order as the input topics
    stats: SamplingStats


def _fill_random(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """``rng.random`` into a preallocated buffer (dtype-matched)."""
    rng.random(out=out, dtype=out.dtype.type)
    return out


def _count_le(flat, first, span, target, scale=None, offset=None):
    """Per element, how many of ``flat[first + 1 .. first + span]`` are
    <= ``target``, each run nondecreasing: a branchless binary search
    (the SIMD index-tree descent).  With ``scale``, each entry read is
    compared as ``entry / scale + offset``."""
    found = first.copy()
    last = first + span
    step = 1 << (span.bit_length() - 1) if span else 0
    while step:
        cand = np.minimum(found + step, last)
        v = flat.take(cand)
        if scale is not None:
            np.divide(v, scale, out=v)
            np.add(v, offset, out=v, casting="same_kind")
        np.copyto(found, cand, where=v <= target)
        step >>= 1
    return np.subtract(found, first, out=found)


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
        buffers.  ``None`` allocates fresh ones (identical results, more
        allocator churn).

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
        # A pair is a run of adjacent tokens sharing a word and a document
        # (the stable word-first sort keeps document order within a word).
        # Pairs are listed grouped by document; doc_ptr is a CSR over them.
        words, docs = chunk.token_words, chunk.token_docs
        num_docs = chunk.num_local_docs
        present = np.flatnonzero(np.diff(chunk.word_offsets))
        first = np.ones(n, dtype=bool)
        np.not_equal(words[1:], words[:-1], out=first[1:])
        first[1:] |= docs[1:] != docs[:-1]
        first = np.flatnonzero(first)
        by_doc = np.argsort(docs[first], kind="stable")
        pair_first = first[by_doc]
        pair_ntok = np.diff(first, append=n)[by_doc]
        # each pair's present-word column
        pair_wcol = np.searchsorted(present, words[pair_first])
        doc_ptr = np.zeros(num_docs + 1, dtype=np.int64)
        np.cumsum(np.bincount(docs[first], minlength=num_docs), out=doc_ptr[1:])
        doc_ntok = np.bincount(docs, minlength=num_docs)
        out = (present, pair_first, pair_ntok, pair_wcol, doc_ptr, doc_ntok)
        for a in out:
            a.setflags(write=False)
        return out

    present, pair_first, pair_ntok, pair_wcol, doc_ptr, doc_ntok = ws.memo(
        ("chunk-static", int(chunk.spec.chunk_id)), _build_static
    )
    wp = present.shape[0]
    num_pairs = pair_first.shape[0]

    # ---- per-word shared structures (the block-shared p* tree) ----------
    denom = ws.take("denom", num_topics)
    np.add(topic_totals, beta_v, out=denom, casting="same_kind")  # K
    denom_excl = ws.take("denom_excl", num_topics)  # less one own count
    np.subtract(topic_totals, 1.0, out=denom_excl, casting="same_kind")
    np.add(denom_excl, beta_v, out=denom_excl)
    # p_wm[c, k] = p*(k) for present word c, word-major: a pair's theta
    # walk reads one contiguous K-row.
    p_wm = ws.take("p_star_wm", (wp, num_topics))
    np.add(np.take(phi, present, axis=1).T, beta, out=p_wm, casting="same_kind")
    np.divide(p_wm, denom, out=p_wm)
    # cdf_wm[c, k]: its prefix sums over k (sequential adds, as the index
    # tree's); the last column is the per-word total P = sum_k p*(k).
    cdf_wm = ws.take("cdf_wm", (wp, num_topics))
    np.cumsum(p_wm, axis=1, out=cdf_wm)
    p_w = cdf_wm[:, num_topics - 1]
    cdf_flat = cdf_wm.reshape(-1)
    p_wm_flat = p_wm.reshape(-1)
    phi_flat = phi.reshape(-1)

    # ---- locate each token's own (d, z_old) entry in theta --------------
    # A dense (local document, topic) -> theta position table: theta-nnz
    # bounds-checked writes, then checked gathers in blocks of
    # _LOOKUP_BLOCK tokens, so no temporary scales with the chunk.
    indptr = theta.indptr
    tkeys = np.repeat(
        np.arange(theta.num_rows, dtype=np.intp) * num_topics, np.diff(indptr)
    )
    np.add(tkeys, theta.indices, out=tkeys)
    theta_at = ws.take("theta_at", theta.num_rows * num_topics, _INTP)
    theta_at.fill(-1)
    theta_at[tkeys] = ws.arange(theta.nnz)
    own_pos = ws.take("own_pos", n, _INTP)
    for lo in range(0, n, _LOOKUP_BLOCK):
        hi = min(lo + _LOOKUP_BLOCK, n)
        key = np.multiply(chunk.token_docs[lo:hi], num_topics, dtype=_INTP)
        np.add(key, topics[lo:hi], out=key, casting="same_kind")
        own_pos[lo:hi] = np.take(theta_at, key)
    if own_pos.min() < 0:
        raise AssertionError(
            "token's current topic missing from its theta row — theta is "
            "out of sync with the topic assignments"
        )

    # The three uniform streams, drawn up front in their stream order.
    u_sel = _fill_random(rng, ws.take("u_sel", n))
    t1 = _fill_random(rng, ws.take("t1", n))
    t2 = _fill_random(rng, ws.take("t2", n))

    # theta's entries widened once (theta-nnz work), so the walk's ufuncs
    # need no casts.
    cols = ws.take("theta_cols", theta.nnz, _INTP)
    np.copyto(cols, theta.indices, casting="safe")
    vals = ws.take("theta_vals", theta.nnz)
    np.copyto(vals, theta.data, casting="same_kind")

    # ---- the walk order: documents by row length, pairs within each -----
    # Everything here is per document; a tile derives its pairs and
    # tokens from it.  Walk position p of document r holds pair
    # pair0[r] + p.
    row_len = np.diff(indptr)
    doc_npairs = np.diff(doc_ptr)
    doc_rank = np.argsort(row_len, kind="stable")
    doc_rank = doc_rank[np.take(doc_npairs, doc_rank) > 0]  # docs with tokens
    npd = np.take(doc_npairs, doc_rank)
    kd_r = np.take(row_len, doc_rank)
    rs_r = np.take(indptr, doc_rank)
    pcum = np.zeros(doc_rank.shape[0] + 1, dtype=np.int64)
    np.cumsum(npd, out=pcum[1:])
    pair0 = np.take(doc_ptr, doc_rank) - pcum[:-1]
    walk_r = np.multiply(npd, kd_r)  # pair-walk slots per document
    walk_end = np.cumsum(walk_r)

    # Tile t ends at the pair whose row holds slot t*_TILE of the
    # (unpadded) pair-walk space.
    num_tiles = -(-int(walk_end[-1]) // _TILE)
    bound = np.arange(1, num_tiles, dtype=np.int64) * _TILE
    r = np.searchsorted(walk_end, bound)
    cuts = np.take(pcum, r) - (
        (np.take(walk_end, r) - np.take(walk_r, r) - bound) // np.take(kd_r, r)
    )
    cuts = np.unique(np.concatenate(([0], cuts, [num_pairs])))
    # each tile's documents r0..r1-1, and the pairs it leaves out of the
    # first and the last
    r0 = np.searchsorted(pcum, cuts[:-1], side="right") - 1
    r1 = np.searchsorted(pcum, cuts[1:])
    tiles = zip(
        cuts[:-1].tolist(), cuts[1:].tolist(), r0.tolist(), r1.tolist(),
        (cuts[:-1] - np.take(pcum, r0)).tolist(),
        (np.take(pcum, r1) - cuts[1:]).tolist(),
    )

    z_new = np.empty(n, dtype=topics.dtype)  # fresh: this is the output
    num_p1 = sum_kd_p1 = 0
    # The loop gathers with the ``take`` method rather than ``np.take``:
    # the same bounds-checked gather without the Python-level wrapper,
    # which costs more than a small tile's gather itself.
    for a, b, r0, r1, head, tail in tiles:
        # ---- the tile's pairs and tokens, in walk order -----------------
        rows = b - a
        width = int(kd_r[r1 - 1])
        span = width + 1
        ramp = ws.arange(max(rows, span))
        cnt = npd[r0:r1].copy()  # the tile's pairs of each document
        cnt[0] -= head
        cnt[-1] -= tail
        rdoc = ramp[:r1 - r0].repeat(cnt)
        order = (pair0[r0:r1] + a).take(rdoc)
        np.add(order, ramp[:rows], out=order)
        ntok = pair_ntok.take(order)
        tend = ntok.cumsum()
        trow = ramp[:rows].repeat(ntok)  # each token's pair row
        tok = (pair_first.take(order) - tend + ntok).take(trow)
        np.add(tok, ws.arange(int(tend[-1])), out=tok)
        wcol = pair_wcol.take(order)

        # ---- walk each (word, document) pair's theta row once -----------
        # A tile is a dense block of pair rows: row p holds pair p's theta
        # row (padded with zero terms to the tile's widest row) times its
        # word's p* row, and one row-wise prefix sum per pair, started at
        # 0, serves every token of the pair.  Each document's theta row is
        # read once and broadcast over its pairs.
        rs, kd_doc = rs_r[r0:r1], kd_r[r0:r1]
        pos = np.minimum(
            np.add.outer(rs, ramp[:width]), (rs + kd_doc - 1)[:, None]
        )
        dvals = vals.take(pos)
        dvals[np.less_equal(kd_doc[:, None], ramp[:width])] = 0.0
        flat = cols.take(pos).take(rdoc, axis=0)
        np.add(flat, np.multiply(wcol, num_topics)[:, None], out=flat)
        # Bounds-checked gathers without ``out=``: a ``mode='raise'``
        # take into an out buffer is staged through a temporary copy.
        # Each slot-sized array is dropped once dead, so no more than two
        # are live at once, and none outlives its tile.
        rp = p_wm_flat.take(flat)
        del flat
        np.multiply(rp, dvals.take(rdoc, axis=0), out=rp)
        # c[p, j]: pair p's prefix sum before slot j (c[p, 0] = 0)
        c = np.empty((rows, span), rp.dtype)
        c[:, 0] = 0.0
        np.cumsum(rp, axis=1, out=c[:, 1:])
        del rp
        c_flat = c.reshape(-1)

        # ---- each token's exclusion scalars -----------------------------
        z = topics.take(tok)
        wc = wcol.take(trow)
        zv = np.multiply(z, num_words, dtype=_INTP)  # (z_old, word) in phi
        np.add(zv, present.take(wc), out=zv)
        phi_zv = phi_flat.take(zv)
        p_star_z = np.add(phi_zv, beta)
        np.divide(p_star_z, denom.take(z), out=p_star_z)
        p_z_excl = np.subtract(phi_zv, 1.0)
        np.add(p_z_excl, beta, out=p_z_excl)
        np.divide(p_z_excl, denom_excl.take(z), out=p_z_excl)
        # Q: the word's shared total P with the O(1) exclusion fix
        pw = p_w.take(wc)
        w2 = np.subtract(pw, p_star_z)
        np.add(w2, p_z_excl, out=w2)
        q = np.multiply(w2, alpha)
        # the own entry's p1 term, with and without its own count:
        # adj = (theta[d, z] - 1) * p*_excl(z), and the walk's own term
        # theta[d, z] * p*(z) less adj
        own = own_pos.take(tok)
        theta_z = vals.take(own)
        adj = np.subtract(theta_z, 1.0)
        np.multiply(adj, p_z_excl, out=adj)
        delta = np.multiply(theta_z, p_star_z, out=theta_z)
        np.subtract(delta, adj, out=delta)

        # Each token's S: its pair's total with the own term swapped for
        # its count-excluded value.
        base = np.multiply(trow, span)
        s_t = c_flat.take(base + width)
        np.subtract(s_t, delta, out=s_t)
        np.maximum(s_t, 0.0, out=s_t)  # guard cancellation noise
        # bucket choice: u < S / (S + Q)  (Algorithm 2 line 6)
        sel = np.add(s_t, q)
        np.multiply(sel, u_sel.take(tok), out=sel)
        take_t = np.less(sel, s_t)

        # ---- p1 draw, for the tokens that take the p1 bucket ------------
        # The same three-case shifted-CDF search as the p2 draw, over the
        # pair's prefix sums.
        k = take_t.nonzero()[0]
        kbase = base.take(k)
        kdoc = rdoc.take(trow.take(k))
        krs = rs.take(kdoc)
        kslot = np.subtract(own.take(k), krs)  # own slot in the row
        target = t1.take(tok.take(k))
        np.multiply(target, s_t.take(k), out=target)
        cbz = c_flat.take(kbase + kslot)
        case_a = np.less(target, cbz)
        np.add(cbz, adj.take(k), out=cbz)
        case_b = np.less(target, cbz)
        shifted = np.add(target, delta.take(k))
        np.copyto(shifted, target, where=case_a)
        # how many of the row's prefix sums c[p, 1..width] are <= the
        # target
        found = _count_le(c_flat, kbase, width, shifted)
        kd = kd_doc.take(kdoc)
        np.minimum(found, kd - 1, out=found)
        np.copyto(found, kslot, where=case_b & ~case_a)
        np.add(found, krs, out=found)
        z_new[tok.take(k)] = cols.take(found)
        num_p1 += k.shape[0]
        sum_kd_p1 += int(kd.sum())
        del c, c_flat

        # ---- p2 draw, for the p2 tokens: shifted-CDF search -------------
        # The exclusion changes one atom (z_old: p_star_z -> p_z_excl),
        # which shifts the CDF by delta for all k >= z_old.  Split the
        # target into three cases instead of rebuilding the shared tree
        # per token.
        k = (~take_t).nonzero()[0]
        if k.shape[0]:
            psz, pze = p_star_z.take(k), p_z_excl.take(k)
            z2, wc2, pw2 = z.take(k), wc.take(k), pw.take(k)
            t2s = t2.take(tok.take(k))
            np.multiply(t2s, w2.take(k), out=t2s)
            # the CDF entry at z_old, less p*(z_old)
            first = np.multiply(wc2, num_topics)
            cbz = cdf_flat.take(np.add(first, z2))
            np.subtract(cbz, psz, out=cbz)
            case_a = np.less(t2s, cbz)
            np.add(cbz, pze, out=cbz)
            case_b = np.less(t2s, cbz)
            np.logical_and(case_b, ~case_a, out=case_b)
            target = np.subtract(t2s, pze)
            np.add(target, psz, out=target)
            np.copyto(target, t2s, where=case_a)
            # guard: keep targets strictly inside (0, P) for the
            # normalised search
            np.minimum(target, np.nextafter(pw2, 0.0), out=target)
            np.maximum(target, 0.0, out=target)
            np.divide(target, pw2, out=target)
            np.add(target, wc2, out=target, casting="same_kind")
            # how many of the word's first K - 1 CDF entries, normalised
            # the same way, are <= the target
            np.subtract(first, 1, out=first)
            pos2 = _count_le(
                cdf_flat, first, num_topics - 1, target, scale=pw2, offset=wc2
            )
            np.copyto(pos2, z2, where=case_b)
            z_new[tok.take(k)] = pos2

    stats = SamplingStats(
        num_tokens=n,
        sum_kd=int(np.dot(doc_ntok, row_len)),
        sum_kd_p1=sum_kd_p1,
        num_p1_draws=num_p1,
        num_p2_draws=n - num_p1,
        num_blocks=chunk.block_plan.num_blocks,
        num_topics=num_topics,
        tree_depth=tree_depth_for(num_topics),
    )
    return SampleResult(new_topics=z_new, stats=stats)

