"""SparseLDA-style sampler (Yao et al. [32]) — exact and word-batched.

The sparsity-aware S/Q decomposition the paper's own sampler builds on
(Section 6.1.1), in two execution modes:

- **exact** (``batch_words=False``, the default): the original
  *sequential CPU* form — per token, exact decrement -> S/Q bucket draw
  -> increment.  Unlike :mod:`repro.baselines.plain_cgs` the per-token
  work is ``O(Kd)`` for the sparse bucket, so this is also the oracle
  for the S/Q bucket logic itself: on identical state its conditional
  distribution equals the dense one exactly (tested).  The loop is
  hoisted (batched RNG, contiguous phi columns, exact incremental
  denominator, reused buffers) but **bit-identical** to the historical
  implementation under a fixed seed (tests/test_golden_regression.py).
- **word-batched** (``batch_words=True``): one vectorised pass over all
  tokens per sweep using the very kernel this repo reproduces
  (:func:`repro.core.sampler.sample_chunk` on a single whole-corpus
  chunk, backed by a reusable :class:`repro.perf.Workspace`).  Updates
  are applied at sweep granularity (chunk-snapshot semantics, exactly
  like one CuLDA iteration on one chunk), so the chain differs from the
  sequential mode draw-for-draw while targeting the same posterior.
  This is the mode the algorithm registry exposes by default — about
  an order of magnitude faster in wall-clock (see docs/PERFORMANCE.md
  "Vectorised baseline samplers").
"""

from __future__ import annotations

import numpy as np

from repro.baselines.plain_cgs import _SWEEP_BLOCK, DenseStateTrainer
from repro.core.sampler import sample_chunk
from repro.core.sparse import from_assignments
from repro.corpus.document import Corpus
from repro.corpus.encoding import encode_chunk
from repro.corpus.partition import ChunkSpec
from repro.perf import Workspace


class SparseLdaSampler(DenseStateTrainer):
    """S/Q bucket sampler: sequential-exact or word-batched sweeps."""

    DESCRIPTION = "SparseLDA-style S/Q bucket sampler (Yao et al.)"

    def __init__(
        self,
        corpus: Corpus,
        num_topics: int,
        alpha: float | None = None,
        beta: float | None = None,
        seed: int = 0,
        batch_words: bool = False,
    ):
        super().__init__(corpus, num_topics, alpha, beta, seed)
        self.batch_words = bool(batch_words)
        # word-batched substrate, built on first batched sweep
        self._chunk = None
        self._order = None
        self._workspace: Workspace | None = None

    @property
    def last_p1_fraction(self) -> float:
        """Share of the last sweep's draws resolved in the sparse bucket."""
        t = self.corpus.num_tokens
        return self._p1_draws / t if t else 0.0

    def sweep(self) -> None:
        """One iteration over every token (mode set by ``batch_words``)."""
        if self.batch_words:
            self._sweep_batched()
        else:
            self._sweep_exact()

    # -- exact sequential mode --------------------------------------------

    def _sweep_exact(self) -> None:
        """Sequential pass; per token O(Kd) for p1, O(K) fallback for p2."""
        m = self.model
        k = self.k
        alpha, beta = self.alpha, self.beta
        beta_v = beta * self.corpus.num_words
        t = m.z.shape[0]
        p1_draws = 0
        # contiguous per-word columns; synced back to m.phi after the loop
        phi_t = np.ascontiguousarray(m.phi.T)
        theta = m.theta
        # scalar-only state lives in Python lists for the loop's duration
        # (scalar ndarray indexing is ~10x a list access); token-indexed
        # lists are materialised in bounded blocks so transient memory
        # stays O(block), not O(T).  Batched block draws consume the same
        # RNG stream as per-token scalar draws (bit-identical).
        totals = m.topic_totals.tolist()
        # denom[j] == totals[j] + beta_v, kept exact by scalar rewrites
        denom = np.add(m.topic_totals, beta_v, dtype=np.float64)
        p_star = np.empty(k, dtype=np.float64)
        cdf_k = np.empty(k, dtype=np.float64)
        for lo in range(0, t, _SWEEP_BLOCK):
            hi = min(lo + _SWEEP_BLOCK, t)
            # exactly two draws per token (bucket choice + in-bucket search)
            u_all = self.rng.random(2 * (hi - lo)).tolist()
            doc_ids = self.doc_ids[lo:hi].tolist()
            word_ids = self.word_ids[lo:hi].tolist()
            z = m.z[lo:hi].tolist()
            for i in range(hi - lo):
                d = doc_ids[i]
                v = word_ids[i]
                old = z[i]
                theta_d = theta[d]
                phi_col = phi_t[v]
                theta_d[old] -= 1
                phi_col[old] -= 1
                totals[old] -= 1
                denom[old] = totals[old] + beta_v

                np.add(phi_col, beta, out=p_star)
                np.divide(p_star, denom, out=p_star)
                nz = np.nonzero(theta_d)[0]  # the Kd support
                w1 = theta_d[nz] * p_star[nz]
                s = float(w1.sum())
                q = float(alpha * p_star.sum())
                u = u_all[2 * i]
                if u * (s + q) < s:
                    cdf = np.cumsum(w1)
                    j = int(np.searchsorted(cdf, u_all[2 * i + 1] * cdf[-1], side="right"))
                    new = int(nz[min(j, nz.size - 1)])
                    p1_draws += 1
                else:
                    np.cumsum(p_star, out=cdf_k)
                    j = int(np.searchsorted(cdf_k, u_all[2 * i + 1] * cdf_k[-1], side="right"))
                    new = min(j, k - 1)
                z[i] = new
                theta_d[new] += 1
                phi_col[new] += 1
                totals[new] += 1
                denom[new] = totals[new] + beta_v
            m.z[lo:hi] = z
        m.phi[...] = phi_t.T
        m.topic_totals[...] = totals
        self._p1_draws = p1_draws

    # -- word-batched mode -------------------------------------------------

    def _ensure_batched_substrate(self) -> None:
        if self._chunk is not None:
            return
        corpus = self.corpus
        spec = ChunkSpec(
            chunk_id=0,
            doc_lo=0,
            doc_hi=corpus.num_docs,
            token_lo=0,
            token_hi=corpus.num_tokens,
        )
        self._chunk = encode_chunk(corpus, spec)
        # chunk token order -> corpus token position (the same stable
        # word-first sort encode_chunk performs)
        self._order = np.argsort(self.word_ids, kind="stable")
        self._workspace = Workspace()

    def _sweep_batched(self) -> None:
        """One vectorised S/Q pass over the whole corpus as a single chunk.

        Counts are snapshotted at sweep start (with per-token exclusion
        handled inside the kernel) and updates applied at sweep end —
        the semantics of one CuLDA iteration with ``C = 1``.
        """
        self._ensure_batched_substrate()
        m = self.model
        chunk = self._chunk
        order = self._order
        k = self.k
        num_words = self.corpus.num_words
        z_chunk = m.z[order]
        theta = from_assignments(
            chunk.token_docs, z_chunk, chunk.num_local_docs, k
        )
        result = sample_chunk(
            chunk, z_chunk, theta, m.phi, m.topic_totals,
            alpha=self.alpha, beta=self.beta, rng=self.rng,
            workspace=self._workspace,
        )
        z_new = result.new_topics.astype(np.int64)
        m.z[order] = z_new
        m.phi[...] = np.bincount(
            z_new * num_words + chunk.token_words, minlength=k * num_words
        ).reshape(k, num_words)
        m.topic_totals[...] = m.phi.sum(axis=1)
        m.theta[...] = np.bincount(
            self.doc_ids * k + m.z, minlength=self.corpus.num_docs * k
        ).reshape(self.corpus.num_docs, k)
        self._p1_draws = result.stats.num_p1_draws

    def describe(self) -> dict:
        """Identity and effective configuration (unified API contract)."""
        return {**super().describe(), "batch_words": self.batch_words}
