"""Batched fold-in inference over a frozen :class:`TopicModel`.

Fold-in holds phi fixed, so documents are independent and the
per-document topic mixture theta_d can be sampled explicitly instead of
being collapsed out.  Each sweep of an :class:`InferenceSession` batch
does two things:

- every document draws ``theta_d ~ Gamma(alpha + n_d)`` (a Dirichlet
  draw up to scale, which the next step ignores) from randomness its own
  RNG stream drew up front, one block of sweeps at a time;
- given theta, every token of the batch draws
  ``z ∝ theta_d[k] * p*[k, w]`` at once, in ``(tokens x K)`` tiles of
  ``_TILE`` slots, and the new assignments index theta's flat rows, so
  one bincount over them forms the next sweep's theta.  The draw
  is two levels deep, like the paper's Figure 5 index tree (Section
  6.1.2): block totals of ``_BLOCK`` topics pick the block, and only that
  block's prefix sums pick the topic (:class:`_BlockDraw`), so no token
  walks a K-long prefix sum.  The tile is plane-major (plane ``c`` holds
  topic ``c`` of every block), so the block totals are contiguous adds.

A batch ends at ``_BATCH_TILES`` tiles of tokens, and gathers its
tokens' p* planes once for all its sweeps.

The chain over (theta, z) has the exact fold-in posterior as its
z-marginal: the partially collapsed move of Magnusson et al. (JCGS
2018), not a stale-count approximation.  tests/test_exact_posterior.py
checks it against the enumerated posterior.  There is no loop over token
positions, so a request costs its tokens, not its longest document's
length times a Python step.  The estimator averages the post-burn-in
counts plus alpha.

Precision: the tile is float32, the only dtype it has, because the draw
is bound by the bytes it moves.  The fold-in reads one float32 ``p*``
in plane layout, held by the session or, for a pooled session, only by
its pool's shared arena; each theta row
is summed in float64 and rounded once into float32.  A weight thus
carries at most three float32 roundings (p*, theta, the product), and
the block totals, block prefix sums and in-block prefix sums add a few
dozen more along a draw's path, so every CDF boundary the draw compares
against lies within a few times 1e-6 of the row total from where exact
arithmetic puts it (about 1e-14 in float64).  A Gamma(alpha) draw below
float32's range becomes 0 (12.6% of draws at alpha = 0.02, none in 2M at
alpha = 0.195); such a topic's true weight is below 1e-45, and every
topic holding a token carries at least one Exp(1) draw.  The randomness
stays float64 and the returned mixtures are float64 count averages.
Scoring (:meth:`InferenceSession.log_predictive`, :meth:`score`) reads
a float64 ``p*`` built from the model on first use, so a server, which
never scores, never holds it.

Determinism contract: each document draws from its own
``np.random.default_rng`` stream spawned from the session seed, in a
fixed consumption order: one ``integers`` init, then for each block of
``b = min(_SWEEP_BLOCK, sweeps left)`` sweeps one
``standard_gamma(alpha, (b, K))``, one ``standard_exponential((b, n))``
and one ``random((b, n))``.  The block length is a module constant, not
a function of the batch, so the order depends on the document and the
schedule alone.  A sweep's theta is its Gamma(alpha) row plus one
Exp(1) per token in each topic, which is Gamma(alpha + n_d) exactly,
summed by one bincount in token order; every other draw's arithmetic
is row-wise.  The batched results are therefore
**bit-identical per document** to a one-document-at-a-time loop under
the same seed (tests/fold_in_oracle.py, asserted by
tests/test_inference_session.py), and independent of batch size, tiling
and worker count.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.corpus.document import Corpus
from repro.model.artifact import TopicModel
from repro.parallel.pool import normalize_affinity
from repro.perf.workspace import Workspace

__all__ = ["FoldInCall", "InferenceSession", "ScoreResult", "check_schedule"]

#: Default Gibbs schedule of an offline fold-in (``InferenceSession``,
#: ``repro infer``, ``repro evaluate``); a server keeps its own
#: (``repro.serving.server.DEFAULT_SERVE_SWEEPS``).
DEFAULT_SWEEPS = 30
DEFAULT_BURN_IN = 10

#: (token, topic) slots in one tile of the fold-in draw: 512 KB per
#: float32 scratch buffer whatever the batch width.
_TILE = 1 << 17

#: Topics per block of the two-level draw (K=256: 16 blocks of 16).
#: Measured against 8 and 32: docs/PERFORMANCE.md "The two-level draw".
_BLOCK = 16

#: Tiles of tokens at which a fold-in batch ends (``_fold_in``), so a
#: batch's gathered p* planes and float64 randomness stay bounded
#: however many documents a call holds.  A constant chosen by
#: measurement, not a knob: docs/PERFORMANCE.md "The plane-major tile".
_BATCH_TILES = 4

#: Sweeps of randomness a document draws per RNG call, so a schedule
#: of S sweeps costs ``1 + 3 * ceil(S / _SWEEP_BLOCK)`` calls per
#: document and scratch stays ``_SWEEP_BLOCK * (K + 2 n) * 8`` bytes per
#: document of n tokens, however long the schedule.  A constant, never
#: derived from the batch: a stream's consumption order must depend on
#: the document and the schedule alone.  20 covers the serving schedule
#: in one block; 10 measured the same and 5 slower (docs/PERFORMANCE.md
#: "The theta-explicit kernel").
_SWEEP_BLOCK = 20


@dataclass(frozen=True)
class ScoreResult:
    """Aggregate predictive score of a document set under a model."""

    log_predictive_per_token: float
    perplexity: float
    num_documents: int
    num_scored_tokens: int


def _plane_shape(k: int, v: int) -> tuple[int, int, int]:
    """Shape ``(b, V, nb)`` of the p* planes of ``K = k`` topics."""
    b = min(_BLOCK, k)
    return b, v, -(-k // b)


def _p_star_planes(
    p_star: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The float32 plane layout ``(b, V, nb)`` of a ``(K, V)`` p* matrix,
    written into ``out`` when given: plane ``c`` holds topic ``c`` of
    every block for every word, zero past K, so a batch gathers its
    tokens' planes with one ``take``."""
    if out is None:
        out = np.empty(_plane_shape(*p_star.shape), dtype=np.float32)
    return _to_planes(p_star.T, out)


def _to_planes(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``(n, K)`` rows into ``out`` in plane layout and return it.

    ``out`` is ``(b, n, nb)``: plane ``c`` holds topic ``c`` of every one
    of the ``nb`` blocks of ``b`` topics, for every row, so ``out[c, i, j]``
    is ``rows[i, j * b + c]`` and topics past K are zero.  The copy casts
    to ``out``'s dtype, rounding each value once.
    """
    b, n, nb = out.shape
    k = rows.shape[1]
    full = k // b
    blocks = out.transpose(1, 2, 0)
    np.copyto(blocks[:, :full], rows[:, : full * b].reshape(n, full, b))
    if full < nb:
        blocks[:, full, : k - full * b] = rows[:, full * b:]
        blocks[:, full, k - full * b:] = 0.0
    return out


class _BlockDraw:
    """Inverse-CDF topic draws over a tile, one block of topics deep.

    Topics form ``nb`` blocks of ``b = min(_BLOCK, K)``, the last one zero
    padded.  Callers write each token's float32 weights
    ``theta_d[k] * p*[k, w]`` into ``tile(n)``, in plane layout (see
    :func:`_to_planes`), so plane ``c`` is topic ``c`` of every block for
    every token.  A call sums the planes left to right into block totals,
    finds the block holding ``u * total`` from the ``nb`` block prefix
    sums, then the topic from that block's own ``b`` prefix sums.  No
    token walks a K-long chain of additions, and every sum is over
    contiguous planes.  Every operation is row-wise, so a token's draw
    depends only on its own products and uniform.  Every sum and both
    targets are float32; the float64 uniforms are rounded only through
    ``u * total``.

    Both targets are clamped strictly below the total they split, so a
    zero-mass topic (an underflowed theta, or padding) is never drawn.
    """

    def __init__(self, ws: Workspace, step: int, k: int):
        b = min(_BLOCK, k)
        nb = -(-k // b)
        self.b, self.nb = b, nb
        f, i = np.float32, np.intp
        # Flat, so the first n tokens of every buffer are one contiguous
        # run whatever n is.
        self._prod = ws.take("infer.prod", b * step * nb, dtype=f)
        self._tot = ws.take("infer.blocktot", (step, nb), dtype=f)
        # cum[:, j] is the mass before block j, so column 0 stays 0.
        self._cum = ws.take("infer.blockcum", (step, nb + 1), dtype=f)
        self._cum[:, 0] = 0.0
        self._pick = ws.take("infer.pick", b * step, dtype=f)
        self._x = ws.take("infer.x", step, dtype=f)
        self._lim = ws.take("infer.lim", step, dtype=f)
        self._j = ws.take("infer.block", step, dtype=i)
        self._at = ws.take("infer.at", step, dtype=i)
        self._past_blocks = ws.take("infer.pastblocks", (step, nb - 1), dtype=np.bool_)
        self._past = ws.take("infer.past", (b - 1) * step, dtype=np.bool_)
        ramp = ws.arange(step)
        self._row_cum = ramp * (nb + 1)
        self._row_tot = ramp * nb

    def tile(self, n: int) -> np.ndarray:
        """The ``(b, n, nb)`` product tile of the first ``n`` tokens."""
        return self._prod[: self.b * n * self.nb].reshape(self.b, n, self.nb)

    def __call__(self, n: int, u: np.ndarray, topic: np.ndarray) -> None:
        """Draw ``topic[i]`` for the first ``n`` tokens of ``tile(n)``."""
        b, nb = self.b, self.nb
        prod = self.tile(n)
        tot, cum = self._tot[:n], self._cum[:n]
        pick = self._pick[: b * n].reshape(b, n)
        past = self._past[: (b - 1) * n].reshape(b - 1, n)
        x, lim, j, at = self._x[:n], self._lim[:n], self._j[:n], self._at[:n]
        np.copyto(tot, prod[0])
        for c in range(1, b):
            tot += prod[c]
        np.add.accumulate(tot, axis=1, out=cum[:, 1:])
        # x = u * total, formed at u's float64 and rounded once, lands on
        # the total itself for u within about 2**-25 of 1; below it, a
        # zero-mass last block is never picked.
        np.multiply(u, cum[:, nb], out=x)
        np.nextafter(cum[:, nb], 0.0, out=lim)
        np.minimum(x, lim, out=x)
        # count(cum[1:nb] <= x) is the block j with cum[j] <= x < cum[j+1].
        np.less_equal(cum[:, 1:nb], x[:, None], out=self._past_blocks[:n])
        np.add.reduce(self._past_blocks[:n], axis=1, dtype=np.intp, out=j)
        # The residual x - cum[j] can round up to the block's total, so
        # it too is clamped below it: the count then stops at a topic of
        # mass, not on the block's zero tail.
        np.add(self._row_cum[:n], j, out=at)
        cum.reshape(-1).take(at, out=lim, mode="clip")
        np.subtract(x, lim, out=x)
        np.add(self._row_tot[:n], j, out=at)
        tot.reshape(-1).take(at, out=lim, mode="clip")
        np.nextafter(lim, 0.0, out=lim)
        np.minimum(x, lim, out=x)
        # Block j's b products, one from each plane, prefix-summed down
        # the planes in the same left-to-right order as the totals.
        prod.reshape(b, n * nb).take(at, axis=1, out=pick, mode="clip")
        np.add.accumulate(pick, axis=0, out=pick)
        np.less_equal(pick[: b - 1], x, out=past)
        np.add.reduce(past, axis=0, dtype=np.intp, out=topic)
        np.multiply(j, b, out=j)
        topic += j


def _as_doc_arrays(docs: Corpus | Sequence[np.ndarray]) -> list[np.ndarray]:
    """Normalize a Corpus or a sequence of token-id arrays to int64 lists."""
    if isinstance(docs, Corpus):
        return [
            docs.word_ids[docs.doc_offsets[d]: docs.doc_offsets[d + 1]]
            .astype(np.int64)
            for d in range(docs.num_docs)
        ]
    return [np.asarray(d, dtype=np.int64).ravel() for d in docs]


def check_schedule(num_sweeps: int, burn_in: int) -> tuple[int, int]:
    """A validated ``(num_sweeps, burn_in)`` Gibbs schedule."""
    sweeps, burn = int(num_sweeps), int(burn_in)
    if burn < 0:
        raise ValueError("burn_in must be non-negative")
    if sweeps <= burn:
        raise ValueError("num_sweeps must exceed burn_in")
    return sweeps, burn


class FoldInCall:
    """One ``transform_many`` call, flattened for a fold-in path.

    Document i of the call carries its stream key ``specs[i] =
    (entropy, spawn_index)``: its own request's seed and its index
    within that request, so coalesced requests keep their stand-alone
    draws.  ``out`` holds one theta row per document, the prior mean
    already in place for empty ones, and ``order`` lists the non-empty
    documents longest first, so a pool can deal them out in turn and
    give every share nearly the same tokens.
    """

    def __init__(
        self,
        requests: Sequence[tuple[Corpus | Sequence[np.ndarray], int]],
        num_topics: int,
        num_words: int,
    ):
        self.docs: list[np.ndarray] = []
        self.specs: list[tuple[int, int]] = []
        self._slices: list[tuple[int, int]] = []
        for docs, seed in requests:
            arrays = _as_doc_arrays(docs)
            lo = len(self.docs)
            self.docs.extend(arrays)
            self.specs.extend((int(seed), i) for i in range(len(arrays)))
            self._slices.append((lo, lo + len(arrays)))
        for w in self.docs:
            if w.size and (w.min() < 0 or w.max() >= num_words):
                raise ValueError("word id out of the trained vocabulary")
        lengths = np.array([w.size for w in self.docs], dtype=np.int64)
        self.out = np.empty((len(self.docs), num_topics), dtype=np.float64)
        self.out[lengths == 0] = 1.0 / num_topics
        order = np.argsort(-lengths, kind="stable")
        self.order = order[lengths[order] > 0]

    def thetas(self) -> list[np.ndarray]:
        """Each request's theta block, in request order."""
        return [self.out[lo:hi] for lo, hi in self._slices]


class InferenceSession:
    """Vectorised batched fold-in against one frozen :class:`TopicModel`.

    Parameters
    ----------
    model:
        The trained artifact; its ``p* = (phi + beta) / (N_k + beta V)``
        matrix is precomputed in float32 for the fold-in tiles, once per
        in-process session or pool start (scoring builds a float64 copy
        on first use).
    num_sweeps / burn_in:
        Default Gibbs schedule per :meth:`transform` call; the mixture
        averages theta over the post-burn-in sweeps.
    num_workers:
        With 2 or more, every call deals its non-empty documents out
        over ``min(num_workers, documents)`` persistent OS worker
        processes, one share per worker, sharing one read-only model
        arena (phi is frozen, so serving needs **no** synchronization —
        see :mod:`repro.model.parallel_inference`); the session itself
        then holds no fold-in matrix and folds nothing in-process.  The
        pool starts on the first call.
        ``None``/1 folds every call in-process.  Results are
        bit-identical for any worker count.
    worker_affinity:
        Optional CPU ids to pin inference workers to (round-robin).
    """

    def __init__(
        self,
        model: TopicModel,
        num_sweeps: int = DEFAULT_SWEEPS,
        burn_in: int = DEFAULT_BURN_IN,
        num_workers: int | None = None,
        worker_affinity=None,
    ):
        if not isinstance(model, TopicModel):
            raise TypeError("model must be a TopicModel")
        self.model = model
        self._configure(
            num_sweeps, burn_in,
            num_workers=num_workers, worker_affinity=worker_affinity,
        )
        self.alpha = model.alpha
        self.num_topics = model.num_topics
        self.num_words = model.num_words
        # A pooled session's p* lives only in its pool's arena.
        self._p_planes = (
            None if self.num_workers >= 2
            else _p_star_planes(model.word_given_topic())
        )

    def _configure(
        self,
        num_sweeps: int,
        burn_in: int,
        num_workers: int | None = None,
        worker_affinity=None,
    ) -> None:
        """Validated scalar setup shared by ``__init__`` and ``_from_matrix``."""
        if num_workers is not None and num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_sweeps, self.burn_in = check_schedule(num_sweeps, burn_in)
        self._ws = Workspace()
        self.num_workers = 1 if num_workers is None else int(num_workers)
        self.worker_affinity = normalize_affinity(worker_affinity)
        self._pool = None
        self._p_star_t64: np.ndarray | None = None
        #: Calls folded in-process vs. sent to the pool (see describe()).
        self._routed = {"in_process": 0, "pool": 0}

    @classmethod
    def _from_matrix(
        cls,
        p_planes: np.ndarray,
        alpha: float,
        num_topics: int,
        num_words: int,
    ) -> InferenceSession:
        """Session over an externally owned float32 ``p*`` in plane
        layout (no copy; see :func:`_p_star_planes`).

        Used by the parallel-inference workers, whose matrix is a view
        of the pool's shared read-only arena.  Such a session has no
        model, so it folds in but cannot score.
        """
        obj = cls.__new__(cls)
        obj.model = None
        obj._configure(DEFAULT_SWEEPS, DEFAULT_BURN_IN)
        obj.alpha = float(alpha)
        obj.num_topics = int(num_topics)
        obj.num_words = int(num_words)
        obj._p_planes = p_planes
        return obj

    # -- lifecycle ---------------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            from repro.model.parallel_inference import InferenceWorkerPool

            self._pool = InferenceWorkerPool(
                self.model, self.num_workers, self.worker_affinity
            )
        return self._pool

    def close(self) -> None:
        """Stop parallel-inference workers and release their shared arena.

        The session stays fully usable: its next call builds a fresh
        pool (phi is frozen, so there is no state to migrate).  No-op
        for in-process sessions.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> InferenceSession:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- inference ---------------------------------------------------------

    def transform(
        self,
        docs: Corpus | Sequence[np.ndarray],
        seed: int = 0,
        num_sweeps: int | None = None,
        burn_in: int | None = None,
    ) -> np.ndarray:
        """Posterior-mean topic mixtures for every document: ``float64[D, K]``.

        Rows are probability vectors in the input document order; empty
        documents receive the prior mean.  Deterministic in ``seed``.
        Document i draws from ``SeedSequence(seed, spawn_key=(i,))``, the
        stream child i of ``spawn(D)`` would get, so this is the
        one-request case of :meth:`transform_many`.
        """
        return self.transform_many([(docs, seed)], num_sweeps, burn_in)[0]

    def transform_many(
        self,
        requests: Sequence[tuple[Corpus | Sequence[np.ndarray], int]],
        num_sweeps: int | None = None,
        burn_in: int | None = None,
    ) -> list[np.ndarray]:
        """Coalesced inference for many independent ``(docs, seed)`` requests.

        All documents across all requests fold in together — one call,
        split once over the worker pool, so a burst of small requests
        keeps every worker as busy as one large request would.  Each
        document's RNG stream is keyed by its **own request's** seed and
        its index *within that request*, so every returned theta block
        is bit-identical to ``transform(docs, seed=seed)`` called alone —
        the property the serving tier's batch coalescer rests on
        (asserted by tests/test_inference_session.py).
        """
        sweeps, burn = check_schedule(
            self.num_sweeps if num_sweeps is None else num_sweeps,
            self.burn_in if burn_in is None else burn_in,
        )
        call = FoldInCall(requests, self.num_topics, self.num_words)
        if self.num_workers < 2:
            self._routed["in_process"] += 1
            self._fold_in(
                call.docs, call.specs, call.order, sweeps, burn, call.out
            )
        elif call.order.size:
            # Frozen phi: documents are independent, so the pool deals
            # them out over its workers, one share each.
            self._routed["pool"] += 1
            self._ensure_pool().transform(call, sweeps, burn)
        return call.thetas()

    def _fold_in(
        self,
        docs: Sequence[np.ndarray],
        specs: Sequence[tuple[int, int]],
        order: np.ndarray,
        sweeps: int,
        burn: int,
        out: np.ndarray,
    ) -> None:
        """Fold the non-empty documents ``docs[i]``, ``i`` in ``order``,
        in consecutive batches that end at ``_BATCH_TILES`` tiles of
        tokens, and write each theta row to ``out[i]``.

        Document i draws from ``SeedSequence(entropy, spawn_key=(spawn,))``
        with ``(entropy, spawn) = specs[i]``: child ``spawn`` of
        ``SeedSequence(entropy).spawn(D)``, built here one batch at a
        time and nowhere else.  A document longer than the budget is a
        batch of its own.  Batch composition never moves a draw.
        """
        budget = _BATCH_TILES * max(1, _TILE // self.num_topics)
        lo = 0
        while lo < len(order):
            hi, tokens = lo + 1, docs[order[lo]].size
            while hi < len(order) and tokens + docs[order[hi]].size <= budget:
                tokens += docs[order[hi]].size
                hi += 1
            batch = order[lo:hi]
            seeds = [
                np.random.SeedSequence(
                    entropy=specs[i][0], spawn_key=(int(specs[i][1]),)
                )
                for i in batch
            ]
            out[batch] = self._fold_in_batch(
                [docs[i] for i in batch], seeds, sweeps, burn
            )
            lo = hi

    def _fold_in_batch(
        self,
        docs: list[np.ndarray],
        seeds: list[np.random.SeedSequence],
        sweeps: int,
        burn: int,
    ) -> np.ndarray:
        """Theta-explicit Gibbs over one batch of non-empty documents.

        The parallel workers reach it through ``_fold_in``, which skips
        :class:`FoldInCall`'s vocabulary check, so a word id outside the
        vocabulary raises ``IndexError`` here, before any gather.
        """
        k = self.num_topics
        ws = self._ws
        a = len(docs)
        total = sum(d.size for d in docs)
        step = max(1, _TILE // k)
        block = min(_SWEEP_BLOCK, sweeps)
        # Tile scratch of _TILE (token, topic) slots, taken at full size
        # so the workspace sizes it once instead of regrowing it request
        # by request.
        draw = _BlockDraw(ws, step, k)
        b, nb = draw.b, draw.nb
        # The per-token state and the gathered p* planes are taken for
        # a whole token budget too, so narrower batches reuse them
        # rather than regrow them.
        cap = max(total, _BATCH_TILES * step)

        def per_token(role: str, width: int, dtype) -> np.ndarray:
            return ws.take(role, width * cap, dtype=dtype)[: width * total]

        # Token-major state: document d's tokens are one contiguous run.
        # An assignment is its flat theta index ``row * K + topic``, so
        # one bincount gives every document's topic counts.
        words = per_token("infer.words", 1, np.intp)
        rows = per_token("infer.rows", 1, np.intp)
        zflat = per_token("infer.zflat", 1, np.intp)
        # One sweep block of every document's randomness: Gamma(alpha)
        # per topic, and Exp(1) and a uniform per token.
        gammas = ws.take("infer.gammas", (a, block, k), dtype=np.float64)
        exps = ws.take("infer.exps", (block, total), dtype=np.float64)
        uniforms = ws.take("infer.uniforms", (block, total), dtype=np.float64)
        # Each sweep's theta, summed in float64, then rounded once into
        # the plane layout the product tile is gathered from.
        theta64 = ws.take("infer.theta64", (a, k), dtype=np.float64)
        theta = ws.take("infer.theta", (b, a, nb), dtype=np.float32)
        acc = ws.zeros("infer.acc", (a, k), dtype=np.float64)
        streams = []
        lo = 0
        for d, (doc, ss) in enumerate(zip(docs, seeds)):
            hi = lo + doc.size
            rng = np.random.default_rng(ss)
            words[lo:hi] = doc
            rows[lo:hi] = d
            zflat[lo:hi] = rng.integers(0, k, size=doc.size) + d * k
            streams.append((rng, gammas[d], lo, hi))
            lo = hi
        if words.min() < 0 or words.max() >= self.num_words:
            raise IndexError("word id out of the trained vocabulary")
        # phi is frozen, so the batch gathers its tokens' p* planes once.
        # The ids are checked above, so the gather may write ``out=``
        # unchecked (a checked one stages a temporary).
        pstar = per_token("infer.pstar", b * nb, np.float32).reshape(b, total, nb)
        self._p_planes.take(words, axis=1, out=pstar, mode="clip")
        topic = ws.take("infer.topic", step, dtype=np.intp)
        alpha = self.alpha
        for s in range(sweeps):
            j = s % block
            if j == 0:
                # The next block of sweeps, three calls per document on
                # its own stream.  The block length depends on the
                # schedule alone, never on the batch.
                sb = min(block, sweeps - s)
                for rng, gamma, lo, hi in streams:
                    rng.standard_gamma(alpha, out=gamma[:sb])
                    exps[:sb, lo:hi] = rng.standard_exponential((sb, hi - lo))
                    uniforms[:sb, lo:hi] = rng.random((sb, hi - lo))
            # theta_d ~ Gamma(alpha + n_d), as Gamma(alpha) plus one Exp(1)
            # per token in each topic.  bincount adds each document's
            # exponentials in token order, whatever else is in the batch.
            weights = np.bincount(zflat, weights=exps[j], minlength=a * k)
            np.add(gammas[:, j], weights.reshape(a, k), out=theta64)
            _to_planes(theta64, theta)
            u = uniforms[j]
            # Given theta the tokens are independent: every token draws
            # z ∝ theta_d[k] * p*[k, w] at once.  The arithmetic is
            # row-wise, so tiling and batch composition never change a
            # draw.
            for lo in range(0, total, step):
                hi = min(lo + step, total)
                n = hi - lo
                prod, t, z = draw.tile(n), topic[:n], zflat[lo:hi]
                theta.take(rows[lo:hi], axis=1, out=prod, mode="clip")
                np.multiply(prod, pstar[:, lo:hi], out=prod)
                draw(n, u[lo:hi], t)
                np.multiply(rows[lo:hi], k, out=z)
                z += t
            if s >= burn:
                acc += np.bincount(zflat, minlength=a * k).reshape(a, k)
        mix = acc + alpha * (sweeps - burn)
        return mix / mix.sum(axis=1, keepdims=True)

    # -- consumption -------------------------------------------------------

    def top_topics(
        self,
        docs: Corpus | Sequence[np.ndarray],
        n: int = 5,
        seed: int = 0,
        theta: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-document ``(topic ids, weights)``, descending, ``(D, n)``.

        Pass a precomputed ``theta`` (from :meth:`transform`) to rank
        without re-running inference.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if theta is None:
            theta = self.transform(docs, seed=seed)
        n = min(n, self.num_topics)
        ids = np.argsort(-theta, axis=1, kind="stable")[:, :n]
        return ids, np.take_along_axis(theta, ids, axis=1)

    def log_predictive(
        self, word_ids: np.ndarray, mixture: np.ndarray
    ) -> float:
        """Mean ``log p(w | mixture, phi)`` of one token sequence.

        Held-out evaluation scores the unseen half of a document under
        the mixture inferred from the observed half.
        """
        w = np.asarray(word_ids, dtype=np.int64)
        if w.size == 0:
            raise ValueError("cannot score an empty token sequence")
        if w.min() < 0 or w.max() >= self.num_words:
            raise ValueError("word id out of the trained vocabulary")
        if mixture.shape != (self.num_topics,):
            raise ValueError("mixture must be a length-K vector")
        if not np.isclose(mixture.sum(), 1.0, atol=1e-6) or np.any(mixture < 0):
            raise ValueError("mixture must be a probability vector")
        token_probs = self._scoring_p_star_t()[w] @ mixture
        return float(np.log(np.maximum(token_probs, 1e-300)).mean())

    def _scoring_p_star_t(self) -> np.ndarray:
        """The float64 (V, K) ``p*`` transpose scoring reads, built from
        the model on first use and cached."""
        if self._p_star_t64 is None:
            self._p_star_t64 = np.ascontiguousarray(
                self.model.word_given_topic().T
            )
        return self._p_star_t64

    def score(
        self,
        docs: Corpus | Sequence[np.ndarray],
        seed: int = 0,
        theta: np.ndarray | None = None,
    ) -> ScoreResult:
        """Predictive score of whole documents under their own mixtures.

        Infers theta (unless given), then evaluates
        ``log p(w | theta_d, phi)`` over every token.  Empty documents
        are skipped.  This measures model fit on the documents as given;
        for the stricter held-out protocol (infer on one half, score the
        other) use :func:`repro.analysis.heldout.document_completion`.
        """
        arrays = _as_doc_arrays(docs)
        if theta is None:
            theta = self.transform(arrays, seed=seed)
        if theta.shape != (len(arrays), self.num_topics):
            raise ValueError("theta must be (num_docs, K)")
        total_lp = 0.0
        total_tokens = 0
        scored_docs = 0
        for d, w in enumerate(arrays):
            if w.size == 0:
                continue
            total_lp += self.log_predictive(w, theta[d]) * w.size
            total_tokens += int(w.size)
            scored_docs += 1
        if total_tokens == 0:
            raise ValueError("no non-empty documents to score")
        per_token = total_lp / total_tokens
        return ScoreResult(
            log_predictive_per_token=per_token,
            perplexity=float(np.exp(-per_token)),
            num_documents=scored_docs,
            num_scored_tokens=total_tokens,
        )

    # -- introspection -----------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """The session's setup, the calls ``routed`` in-process and to
        the pool, the pool's state (``None`` before it starts) and the
        fold-in workspace."""
        return {
            "num_topics": self.num_topics,
            "num_words": self.num_words,
            "num_sweeps": self.num_sweeps,
            "burn_in": self.burn_in,
            "num_workers": self.num_workers,
            "worker_affinity": self.worker_affinity,
            "routed": dict(self._routed),
            "pool": self._pool.describe() if self._pool is not None else None,
            "workspace": self._ws.describe(),
        }
