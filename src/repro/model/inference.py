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
  walks a K-long prefix sum.

The chain over (theta, z) has the exact fold-in posterior as its
z-marginal: the partially collapsed move of Magnusson et al. (JCGS
2018), not a stale-count approximation.  tests/test_exact_posterior.py
checks it against the enumerated posterior.  There is no loop over token
positions, so a request costs its tokens, not its longest document's
length times a Python step.  The estimator averages the post-burn-in
counts plus alpha.

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

__all__ = ["InferenceSession", "ScoreResult"]

#: Default documents per fold-in batch; per-batch buffers scale with
#: the batch's tokens and topics times ``_SWEEP_BLOCK``.
DEFAULT_BATCH_DOCS = 256

#: (token, topic) slots in one tile of the fold-in draw: about 1 MB per
#: float64 scratch buffer whatever the batch width.
_TILE = 1 << 17

#: Topics per block of the two-level draw (K=256: 16 blocks of 16).
#: Measured against 8 and 32: docs/PERFORMANCE.md "The two-level draw".
_BLOCK = 16

#: Fewest documents worth one worker's share of a call.  A call folds
#: in ``min(num_workers, docs // _MIN_SHARE_DOCS)`` shares and stays
#: in-process below two, so 4-document serving requests never pay a
#: pool round trip.  Measured on a 2-CPU host at K=256, V=2400 and 20
#: sweeps: docs/PERFORMANCE.md "Serving on every core".
_MIN_SHARE_DOCS = 24

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


class _BlockDraw:
    """Inverse-CDF topic draws over a tile, one block of topics deep.

    Callers write each token's weights ``theta_d[k] * p*[k, w]`` into
    ``prod[:n, :K]``; the rest of every row is zero padding up to ``nb``
    whole blocks of ``b = min(_BLOCK, K)`` topics.  A call sums each
    block left to right, finds the block holding ``u * total`` from the
    ``nb`` block prefix sums, then the topic from that block's own ``b``
    prefix sums.  No token walks a K-long chain of additions.  Every
    operation is row-wise, so a token's draw depends only on its own
    products and uniform.

    Both targets are clamped strictly below the total they split, so a
    zero-mass topic (an underflowed theta, or padding) is never drawn.
    """

    def __init__(self, ws: Workspace, step: int, k: int):
        b = min(_BLOCK, k)
        nb = -(-k // b)
        self.b, self.nb = b, nb
        f, i = np.float64, np.intp
        self.prod = ws.take("infer.prod", (step, nb * b), dtype=f)
        self.prod[:, k:] = 0.0
        self._tot = ws.take("infer.blocktot", (step, nb), dtype=f)
        # cum[:, j] is the mass before block j, so column 0 stays 0.
        self._cum = ws.take("infer.blockcum", (step, nb + 1), dtype=f)
        self._cum[:, 0] = 0.0
        self._pick = ws.take("infer.pick", (step, b), dtype=f)
        self._x = ws.take("infer.x", step, dtype=f)
        self._lim = ws.take("infer.lim", step, dtype=f)
        self._j = ws.take("infer.block", step, dtype=i)
        self._at = ws.take("infer.at", step, dtype=i)
        self._past_blocks = ws.take("infer.pastblocks", (step, nb - 1), dtype=np.bool_)
        self._past = ws.take("infer.past", (step, b - 1), dtype=np.bool_)
        ramp = ws.arange(step)
        self._row_cum = ramp * (nb + 1)
        self._row_tot = ramp * nb

    def __call__(self, n: int, u: np.ndarray, topic: np.ndarray) -> None:
        """Draw ``topic[i]`` for the first ``n`` rows of ``prod``."""
        b, nb = self.b, self.nb
        prod = self.prod[:n]
        blocks = prod.reshape(n, nb, b)
        tot, cum, pick = self._tot[:n], self._cum[:n], self._pick[:n]
        x, lim, j, at = self._x[:n], self._lim[:n], self._j[:n], self._at[:n]
        np.copyto(tot, blocks[:, :, 0])
        for c in range(1, b):
            tot += blocks[:, :, c]
        np.add.accumulate(tot, axis=1, out=cum[:, 1:])
        # x = u * total lands on the total itself only when that is
        # subnormal; below it, a zero-mass last block is never picked.
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
        prod.reshape(n * nb, b).take(at, axis=0, out=pick, mode="clip")
        np.add.accumulate(pick, axis=1, out=pick)
        np.less_equal(pick[:, : b - 1], x[:, None], out=self._past[:n])
        np.add.reduce(self._past[:n], axis=1, dtype=np.intp, out=topic)
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


class InferenceSession:
    """Vectorised batched fold-in against one frozen :class:`TopicModel`.

    Parameters
    ----------
    model:
        The trained artifact; its ``p* = (phi + beta) / (N_k + beta V)``
        matrix is precomputed once per session.
    num_sweeps / burn_in:
        Default Gibbs schedule per :meth:`transform` call; the mixture
        averages theta over the post-burn-in sweeps.
    batch_docs:
        Documents processed per fold-in batch (memory/speed knob; does
        not change results).
    workspace:
        Optional shared :class:`~repro.perf.Workspace`; by default the
        session owns one and reuses its buffers across calls.
    num_workers:
        Fan batches out over up to this many persistent OS worker
        processes sharing one read-only model arena (phi is frozen, so
        serving needs **no** synchronization — see
        :mod:`repro.model.parallel_inference`).  ``None``/1 stays
        in-process, and so does any call too small for two shares of
        ``_MIN_SHARE_DOCS`` documents.  Results are bit-identical for
        any worker count.
    worker_affinity:
        Optional CPU ids to pin inference workers to (round-robin).
    """

    def __init__(
        self,
        model: TopicModel,
        num_sweeps: int = 30,
        burn_in: int = 10,
        batch_docs: int = DEFAULT_BATCH_DOCS,
        workspace: Workspace | None = None,
        num_workers: int | None = None,
        worker_affinity=None,
    ):
        if not isinstance(model, TopicModel):
            raise TypeError("model must be a TopicModel")
        self.model = model
        self._configure(
            num_sweeps, burn_in, batch_docs, workspace,
            num_workers=num_workers, worker_affinity=worker_affinity,
        )
        self.alpha = model.alpha
        self.num_topics = model.num_topics
        self.num_words = model.num_words
        # (V, K) transpose: token gathers become contiguous row reads.
        self._p_star_t = np.ascontiguousarray(model.word_given_topic().T)

    def _configure(
        self,
        num_sweeps: int,
        burn_in: int,
        batch_docs: int,
        workspace: Workspace | None,
        num_workers: int | None = None,
        worker_affinity=None,
    ) -> None:
        """Validated scalar setup shared by ``__init__`` and ``_from_matrix``."""
        from repro.model.parallel_inference import resolve_inference_workers

        if num_sweeps <= burn_in:
            raise ValueError("num_sweeps must exceed burn_in")
        if burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if batch_docs < 1:
            raise ValueError("batch_docs must be >= 1")
        self.num_sweeps = int(num_sweeps)
        self.burn_in = int(burn_in)
        self.batch_docs = int(batch_docs)
        self._ws = workspace if workspace is not None else Workspace()
        self.num_workers = resolve_inference_workers(num_workers)
        self.worker_affinity = normalize_affinity(worker_affinity)
        self._pool = None
        #: Calls folded in-process vs. sent to the pool (see describe()).
        self._routed = {"in_process": 0, "pool": 0}

    @classmethod
    def _from_matrix(
        cls,
        p_star_t: np.ndarray,
        alpha: float,
        num_topics: int,
        num_words: int,
        num_sweeps: int = 30,
        burn_in: int = 10,
        batch_docs: int = DEFAULT_BATCH_DOCS,
    ) -> InferenceSession:
        """Session over an externally owned ``p*`` transpose (no copy).

        Used by the parallel-inference workers, whose matrix is a view
        of the pool's shared read-only arena.
        """
        obj = cls.__new__(cls)
        obj.model = None
        obj._configure(num_sweeps, burn_in, batch_docs, None)
        obj.alpha = float(alpha)
        obj.num_topics = int(num_topics)
        obj.num_words = int(num_words)
        obj._p_star_t = p_star_t
        return obj

    # -- lifecycle ---------------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            from repro.model.parallel_inference import InferenceWorkerPool

            self._pool = InferenceWorkerPool(
                self._p_star_t,
                alpha=self.alpha,
                num_topics=self.num_topics,
                num_words=self.num_words,
                num_workers=self.num_workers,
                batch_docs=self.batch_docs,
                worker_affinity=self.worker_affinity,
            )
        return self._pool

    def close(self) -> None:
        """Stop parallel-inference workers and release their shared arena.

        The session stays fully usable: the next parallel ``transform``
        builds a fresh pool (phi is frozen, so there is no state to
        migrate).  No-op for in-process sessions.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> InferenceSession:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- inference ---------------------------------------------------------

    def _resolve_schedule(
        self, num_sweeps: int | None, burn_in: int | None
    ) -> tuple[int, int]:
        sweeps = self.num_sweeps if num_sweeps is None else int(num_sweeps)
        burn = self.burn_in if burn_in is None else int(burn_in)
        if burn < 0:
            raise ValueError("burn_in must be non-negative")
        if sweeps <= burn:
            raise ValueError("num_sweeps must exceed burn_in")
        return sweeps, burn

    def transform(
        self,
        docs: Corpus | Sequence[np.ndarray],
        seed: int = 0,
        num_sweeps: int | None = None,
        burn_in: int | None = None,
    ) -> np.ndarray:
        """Posterior-mean topic mixtures for every document: ``float64[D, K]``.

        Rows are probability vectors in the input document order; empty
        documents receive the prior mean.  Deterministic in ``seed`` and
        invariant to ``batch_docs``.
        """
        sweeps, burn = self._resolve_schedule(num_sweeps, burn_in)
        arrays = _as_doc_arrays(docs)
        out = np.empty((len(arrays), self.num_topics), dtype=np.float64)
        # Document i draws from SeedSequence(seed, spawn_key=(i,)) — the
        # same stream spawn(D) child i would get, derived without O(D)
        # setup, and the exact spec the serving tier reproduces when it
        # coalesces this request with others (see transform_many).
        specs = [(int(seed), i) for i in range(len(arrays))]
        self._transform_into(arrays, specs, sweeps, burn, out)
        return out

    def transform_many(
        self,
        requests: Sequence[tuple[Corpus | Sequence[np.ndarray], int]],
        num_sweeps: int | None = None,
        burn_in: int | None = None,
    ) -> list[np.ndarray]:
        """Coalesced inference for many independent ``(docs, seed)`` requests.

        All documents across all requests fold in together — one set of
        batches sized for the worker pool, so a burst of small
        requests keeps every worker as busy as one large request would.
        Each document's RNG stream is keyed by its **own request's** seed
        and its index *within that request*, so every returned theta
        block is bit-identical to ``transform(docs, seed=seed)`` called
        alone — the property the serving tier's batch coalescer rests on
        (asserted by tests/test_inference_session.py).
        """
        sweeps, burn = self._resolve_schedule(num_sweeps, burn_in)
        arrays: list[np.ndarray] = []
        specs: list[tuple[int, int]] = []
        slices: list[tuple[int, int]] = []
        for docs, seed in requests:
            req_arrays = _as_doc_arrays(docs)
            lo = len(arrays)
            arrays.extend(req_arrays)
            specs.extend((int(seed), i) for i in range(len(req_arrays)))
            slices.append((lo, lo + len(req_arrays)))
        out = np.empty((len(arrays), self.num_topics), dtype=np.float64)
        self._transform_into(arrays, specs, sweeps, burn, out)
        return [out[lo:hi] for lo, hi in slices]

    def _transform_into(
        self,
        arrays: list[np.ndarray],
        specs: list[tuple[int, int]],
        sweeps: int,
        burn: int,
        out: np.ndarray,
    ) -> None:
        """Fold ``arrays`` in and scatter theta rows into ``out``.

        ``specs[i] = (entropy, spawn_index)`` names document i's RNG
        stream ``SeedSequence(entropy, spawn_key=(spawn_index,))``;
        keeping the stream key explicit (rather than positional) is what
        lets coalesced requests keep their stand-alone draws.
        """
        k = self.num_topics
        for w in arrays:
            if w.size and (w.min() < 0 or w.max() >= self.num_words):
                raise ValueError("word id out of the trained vocabulary")
        lengths = np.array([w.size for w in arrays], dtype=np.int64)
        out[lengths == 0] = 1.0 / k
        # Longest-first order, so the pool path below can deal documents
        # out in turn and give every share nearly the same tokens.
        order = np.argsort(-lengths, kind="stable")
        order = order[lengths[order] > 0]
        n = order.shape[0]
        shares = min(self.num_workers, n // _MIN_SHARE_DOCS)
        if shares >= 2:
            # Frozen phi: batches are independent, so scatter them over
            # the worker pool.  Workers derive each document's stream
            # from its spec, so any split is bit-identical to the
            # in-process path below.  Batches hold at most
            # ceil(docs / shares) documents, so every share's worker is
            # busy even below batch_docs * shares.  A batch costs its
            # tokens, so each round of ``shares`` batches deals its span
            # of the longest-first order out in turn and its batches
            # match in tokens.  Smaller calls stay in-process, where a
            # pool's round trip costs more than the second core earns.
            self._routed["pool"] += 1
            span = shares * min(self.batch_docs, -(-n // shares))
            batches = []
            for lo in range(0, n, span):
                for s in range(min(shares, n - lo)):
                    idx = order[lo + s: lo + span: shares]
                    batches.append(
                        (idx, [arrays[i] for i in idx], [specs[i] for i in idx])
                    )
            self._ensure_pool().transform_batches(batches, sweeps, burn, out)
            return
        self._routed["in_process"] += 1
        for lo in range(0, n, self.batch_docs):
            batch = order[lo: lo + self.batch_docs]
            seeds = [
                np.random.SeedSequence(
                    entropy=specs[i][0], spawn_key=(specs[i][1],)
                )
                for i in batch
            ]
            theta = self._fold_in_batch(
                [arrays[i] for i in batch], seeds, sweeps, burn,
            )
            out[batch] = theta

    def _fold_in_batch(
        self,
        docs: list[np.ndarray],
        seeds: list[np.random.SeedSequence],
        sweeps: int,
        burn: int,
    ) -> np.ndarray:
        """Theta-explicit Gibbs over one batch of non-empty documents.

        Also the parallel workers' entry point, which skips
        ``_transform_into``'s vocabulary check, so a word id outside the
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
        # Token-major state: document d's tokens are one contiguous run.
        # An assignment is its flat theta index ``row * K + topic``, so
        # one bincount gives every document's topic counts.
        words = ws.take("infer.words", total, dtype=np.intp)
        rows = ws.take("infer.rows", total, dtype=np.intp)
        zflat = ws.take("infer.zflat", total, dtype=np.intp)
        # One sweep block of every document's randomness: Gamma(alpha)
        # per topic, and Exp(1) and a uniform per token.
        gammas = ws.take("infer.gammas", (a, block, k), dtype=np.float64)
        exps = ws.take("infer.exps", (block, total), dtype=np.float64)
        uniforms = ws.take("infer.uniforms", (block, total), dtype=np.float64)
        # theta rows carry the draw's zero padding, so one gather fills
        # whole rows of the product tile.
        theta = ws.take("infer.theta", (a, draw.prod.shape[1]), dtype=np.float64)
        theta[:, k:] = 0.0
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
        # The ids are checked above, so the gathers may write ``out=``
        # unchecked (a checked one stages a temporary).
        pstar = ws.take("infer.pstar", (step, k), dtype=np.float64)
        topic = ws.take("infer.topic", step, dtype=np.intp)
        p_star_t = self._p_star_t
        # phi is frozen, so a batch that fits one tile gathers once.
        hoisted = total <= step
        if hoisted:
            p_star_t.take(words, axis=0, out=pstar[:total], mode="clip")
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
            np.add(gammas[:, j], weights.reshape(a, k), out=theta[:, :k])
            u = uniforms[j]
            # Given theta the tokens are independent: every token draws
            # z ∝ theta_d[k] * p*[k, w] at once.  The arithmetic is
            # row-wise, so tiling and batch composition never change a
            # draw.
            for lo in range(0, total, step):
                hi = min(lo + step, total)
                n = hi - lo
                g, prod, t, z = pstar[:n], draw.prod[:n], topic[:n], zflat[lo:hi]
                if not hoisted:
                    p_star_t.take(words[lo:hi], axis=0, out=g, mode="clip")
                theta.take(rows[lo:hi], axis=0, out=prod, mode="clip")
                np.multiply(prod[:, :k], g, out=prod[:, :k])
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
        token_probs = self._p_star_t[w] @ mixture
        return float(np.log(np.maximum(token_probs, 1e-300)).mean())

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

    def pool_stats(self) -> dict[str, Any]:
        """Calls routed in-process vs. to the pool, and the pool's state.

        Reads only counters and one pool snapshot, so the serving tier's
        ``stats`` op may call it while a dispatch is running.
        """
        pool = self._pool
        return {
            "routed": dict(self._routed),
            "pool": pool.describe() if pool is not None else None,
        }

    def describe(self) -> dict[str, Any]:
        return {
            "num_topics": self.num_topics,
            "num_words": self.num_words,
            "num_sweeps": self.num_sweeps,
            "burn_in": self.burn_in,
            "batch_docs": self.batch_docs,
            "num_workers": self.num_workers,
            "worker_affinity": self.worker_affinity,
            **self.pool_stats(),
            "workspace": self._ws.describe(),
        }
