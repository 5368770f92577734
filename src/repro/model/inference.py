"""Batched fold-in inference over a frozen :class:`TopicModel`.

The sequential :class:`~repro.core.inference.FoldInSampler` walks one
document at a time, paying Python-loop overhead per *token*.  Because
phi is frozen during fold-in, documents are independent — so an
:class:`InferenceSession` runs many documents per sweep in lockstep:
documents are sorted by length into batches, and each (sweep, position)
step removes/redraws/re-adds the i-th token of every still-active
document with one set of vectorised (A, K) operations on pooled
:class:`~repro.perf.Workspace` buffers.  Python-loop overhead drops to
per-*position* instead of per-token — the same batching win the paper's
per-warp samplers get from running one document per warp.

Layout of one batch (A documents, longest first, maxL = longest length):

- ``words``, ``uniforms`` and the assignments are position-major
  ``(maxL, A)``: step i reads the first ``active(i)`` entries of row i,
  contiguous.  Uniforms are still filled per document, one
  ``random(n)`` per sweep.
- An assignment is stored as its flat theta index ``row * K + topic``
  (``rowoff[row] = row * K``), so removing and re-adding a token are 1-D
  fancy updates on ``theta.reshape(-1)``.
- ``cdf``, ``x``, ``below`` and ``new`` are step scratch,
  taken from the workspace once per batch.  Their leading-``a`` views
  are rebuilt only when the active count changes, so a step is a fixed
  run of about ten direct ufunc calls with no workspace lookups.

Determinism contract: each document draws from its own
``np.random.default_rng`` stream spawned from the session seed, with
exactly the consumption order of the sequential sampler (one
``integers`` init, then one uniform per token per sweep).  The batched
results are therefore **bit-identical per document** to
``FoldInSampler.infer_corpus`` under the same seed — asserted by
tests/test_inference_session.py — and independent of batch size.
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

#: Default documents per lockstep batch; per-batch buffers scale with
#: ``batch_docs * max_doc_len`` (uniforms are drawn one sweep at a time).
DEFAULT_BATCH_DOCS = 256


@dataclass(frozen=True)
class ScoreResult:
    """Aggregate predictive score of a document set under a model."""

    log_predictive_per_token: float
    perplexity: float
    num_documents: int
    num_scored_tokens: int


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
        Documents processed per lockstep batch (memory/speed knob; does
        not change results).
    workspace:
        Optional shared :class:`~repro.perf.Workspace`; by default the
        session owns one and reuses its buffers across calls.
    num_workers:
        Fan batches out over this many persistent OS worker processes
        sharing one read-only model arena (phi is frozen, so serving
        needs **no** synchronization — see
        :mod:`repro.model.parallel_inference`).  ``None``/1 stays
        in-process.  Results are bit-identical for any worker count.
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
        """Validated scalar setup shared by ``__init__`` and ``from_fold_in``."""
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

    @classmethod
    def from_fold_in(
        cls,
        sampler: Any,
        num_sweeps: int = 30,
        burn_in: int = 10,
        batch_docs: int = DEFAULT_BATCH_DOCS,
    ) -> InferenceSession:
        """Adopt a sequential :class:`~repro.core.inference.FoldInSampler`.

        Compat path for callers holding a sampler instead of a
        :class:`TopicModel`: reuses the sampler's precomputed ``p*``
        matrix verbatim, so batched results stay bit-identical to the
        sampler's own per-document loop.
        """
        obj = cls.__new__(cls)
        obj.model = None
        obj._configure(num_sweeps, burn_in, batch_docs, None)
        obj.alpha = float(sampler.alpha)
        obj.num_topics = int(sampler.num_topics)
        obj.num_words = int(sampler.num_words)
        obj._p_star_t = np.ascontiguousarray(sampler._p_star.T)
        return obj

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
        lockstep batches sized for the worker pool, so a burst of small
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
        # Longest-first order groups similar lengths into a batch, so the
        # per-position active set shrinks smoothly instead of raggedly.
        order = np.argsort(-lengths, kind="stable")
        order = order[lengths[order] > 0]
        if self.num_workers > 1 and order.shape[0] > 0:
            # Frozen phi: batches are independent, so scatter them over
            # the worker pool.  Workers derive each document's stream
            # from its spec, so the result is bit-identical to the
            # in-process path below — including under the narrower batch
            # split here, which caps batches at ceil(docs / workers) so
            # a request smaller than batch_docs * workers still keeps
            # every worker busy.
            per = min(
                self.batch_docs,
                -(-order.shape[0] // self.num_workers),
            )
            batches = [
                (
                    order[lo: lo + per],
                    [arrays[i] for i in order[lo: lo + per]],
                    [specs[i] for i in order[lo: lo + per]],
                )
                for lo in range(0, order.shape[0], per)
            ]
            self._ensure_pool().transform_batches(batches, sweeps, burn, out)
            return
        for lo in range(0, order.shape[0], self.batch_docs):
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
        """Lockstep Gibbs over one batch (docs sorted longest-first).

        Also the parallel workers' entry point, which skips
        ``_transform_into``'s vocabulary check: the p* gather stays
        bounds-checked, so a word id >= V raises ``IndexError``.
        """
        k = self.num_topics
        ws = self._ws
        a_max = len(docs)
        lengths = [d.size for d in docs]
        max_len = lengths[0]
        # Position-major state, (maxL, A): step i reads row i, whose
        # first active(i) entries are the documents still running.
        # Assignments are flat theta indices ``row * K + topic``.
        words = ws.take("infer.words", (max_len, a_max), dtype=np.intp)
        zflat = ws.take("infer.zflat", (max_len, a_max), dtype=np.intp)
        uniforms = ws.take("infer.uniforms", (max_len, a_max), dtype=np.float64)
        theta = ws.take("infer.theta", (a_max, k), dtype=np.float64)
        acc = ws.zeros("infer.acc", (a_max, k), dtype=np.float64)
        rowoff = ws.take("infer.rowoff", a_max, dtype=np.intp)
        np.multiply(ws.arange(a_max), k, out=rowoff)
        cdf = ws.take("infer.cdf", (a_max, k), dtype=np.float64)
        x = ws.take("infer.x", a_max, dtype=np.float64)
        below = ws.take("infer.below", (a_max, k - 1), dtype=np.bool_)
        new = ws.take("infer.new", a_max, dtype=np.intp)
        gens: list[np.random.Generator] = []
        for d, (doc, ss) in enumerate(zip(docs, seeds)):
            rng = np.random.default_rng(ss)
            z = rng.integers(0, k, size=doc.size)
            words[: doc.size, d] = doc
            theta[d] = np.bincount(z, minlength=k)
            np.add(z, d * k, out=zflat[: doc.size, d])
            gens.append(rng)
        theta_flat = theta.reshape(-1)
        p_star_t = self._p_star_t
        alpha = self.alpha
        # active document count per token position (docs longest-first).
        active = np.searchsorted(
            -np.asarray(lengths), -np.arange(max_len), side="left"
        ).tolist()
        steps = [
            (a, zflat[i, :a], words[i, :a], uniforms[i, :a])
            for i, a in enumerate(active)
        ]
        a_views = -1
        for s in range(sweeps):
            # One ``random(n)`` per document per sweep consumes each
            # stream exactly like the sequential sampler's per-token
            # draws (sweep-major order), and keeps the buffer at
            # O(A * maxL) instead of O(A * sweeps * maxL).
            for d, rng in enumerate(gens):
                uniforms[: lengths[d], d] = rng.random(lengths[d])
            for a, zrow, wrow, urow in steps:
                if a != a_views:
                    # Leading-a views, rebuilt when the active count drops.
                    th, c = theta[:a], cdf[:a]
                    c_head, c_last = c[:, : k - 1], c[:, -1]
                    xa, b, nw = x[:a], below[:a], new[:a]
                    x_col, ro = xa[:, None], rowoff[:a]
                    a_views = a
                theta_flat[zrow] -= 1.0
                # Checked gather without ``out=``: in mode='raise' NumPy
                # stages an ``out=`` result through a temporary anyway.
                g = p_star_t.take(wrow, axis=0)
                # probs = (theta + alpha) * p*, formed in the fresh
                # gather block with ``c`` as the addend's scratch.
                np.add(th, alpha, out=c)
                np.multiply(g, c, out=g)
                np.add.accumulate(g, axis=1, out=c)
                np.multiply(urow, c_last, out=xa)
                # count(cdf[:K-1] <= x) == min(count(cdf <= x), K-1)
                # for a non-decreasing cdf: the draw needs no clamp.
                np.less_equal(c_head, x_col, out=b)
                np.add.reduce(b, axis=1, dtype=np.intp, out=nw)
                np.add(ro, nw, out=zrow)
                theta_flat[zrow] += 1.0
            if s >= burn:
                acc += theta
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

        Same definition as the sequential sampler's: held-out evaluation
        scores the unseen half of a document under the mixture inferred
        from the observed half.
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

    def describe(self) -> dict[str, Any]:
        return {
            "num_topics": self.num_topics,
            "num_words": self.num_words,
            "num_sweeps": self.num_sweeps,
            "burn_in": self.burn_in,
            "batch_docs": self.batch_docs,
            "num_workers": self.num_workers,
            "worker_affinity": self.worker_affinity,
            "pool": self._pool.describe() if self._pool is not None else None,
            "workspace": self._ws.describe(),
        }
