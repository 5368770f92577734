"""LightLDA-style baseline: alias-table Metropolis-Hastings (Yuan et al. [35]).

LightLDA's contribution is the O(1) **alias-table word proposal**: for
each word, a Walker/Vose alias table over ``phi[:, v] + beta`` is built
once per iteration and then serves every token of the word in constant
time, amortizing the O(K) build.  Combined with the doc-proposal of the
cycle-proposal family, per-token cost is O(1).

This implementation genuinely builds and draws from Walker/Vose alias
tables — unlike the WarpLDA module (which draws the same distribution
via vectorised CDF search), so the alias substrate is exercised
end-to-end.  All present words' tables are built in one batched Vose
construction (:func:`repro.baselines.alias.build_alias_tables`), which
is bit-identical to a scalar Vose build per word in a Python loop but
removes the O(V * K) interpreter work from the iteration hot path.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.alias import build_alias_tables
from repro.baselines.warplda import CycleProposalTrainer
from repro.corpus.document import Corpus
from repro.gpusim.cache import cpu_cache_bandwidth_factor
from repro.gpusim.clock import KernelCost, cpu_kernel_time
from repro.gpusim.platform import XEON_E5_2650_V3
from repro.gpusim.spec import CpuSpec


class LightLdaTrainer(CycleProposalTrainer):
    """Alias-MH LDA trainer with a simulated CPU clock."""

    DESCRIPTION = "LightLDA-style alias-table MH baseline (O(1) word proposals)"

    def __init__(
        self,
        corpus: Corpus,
        num_topics: int,
        alpha: float | None = None,
        beta: float | None = None,
        seed: int = 0,
        cpu: CpuSpec = XEON_E5_2650_V3,
    ):
        super().__init__(corpus, num_topics, alpha, beta, seed, cpu)
        # word-sorted token index, fixed for the whole run
        self._order = np.argsort(self.word_ids, kind="stable")
        self._bounds = np.searchsorted(
            self.word_ids[self._order], np.arange(corpus.num_words + 1)
        )
        # present words + token -> present-word column map (also static)
        spans = np.diff(self._bounds)
        self._present = np.nonzero(spans)[0]
        self._wcol = np.repeat(
            np.arange(self._present.shape[0], dtype=np.int64),
            spans[self._present],
        )

    def _word_alias_pass(self) -> None:
        """Alias-table word proposals for all tokens, delayed updates.

        The per-word tables over ``phi[:, v] + beta`` are built for all
        present words at once (batched Vose, amortising the O(K) build),
        then each word's tokens draw from its table in O(1).  The RNG
        draw order (slots then coins, word by ascending id) matches the
        historical per-word alias-table sample loop exactly, so fixed
        seeds reproduce the same chain.
        """
        m = self.model
        beta_v = self.beta * self.corpus.num_words
        proposal = m.z.copy()
        present = self._present
        if present.size:
            # (Wp, K) rows == phi[:, v].astype(float64) + beta, bitwise.
            weights = m.phi[:, present].T.astype(np.float64)
            weights += self.beta
            prob, alias = build_alias_tables(weights)
            # Draw (slot, coin) pairs word by ascending id — the same RNG
            # stream as the historical per-word alias-table sample loop —
            # then resolve every token against its word's table at once.
            t = m.z.shape[0]
            slots = np.empty(t, dtype=np.int64)
            coins = np.empty(t, dtype=np.float64)
            bounds = self._bounds
            for v in present:
                lo, hi = bounds[v], bounds[v + 1]
                slots[lo:hi] = self.rng.integers(0, self.k, size=hi - lo)
                self.rng.random(out=coins[lo:hi])
            wcol = self._wcol
            proposal[self._order] = np.where(
                coins < prob[wcol, slots], slots, alias[wcol, slots]
            )
        # acceptance keeps the theta/totals ratio (phi terms cancel vs q)
        num = (m.theta[self.doc_ids, proposal] + self.alpha) * (
            m.topic_totals[m.z] + beta_v
        )
        den = (m.theta[self.doc_ids, m.z] + self.alpha) * (
            m.topic_totals[proposal] + beta_v
        )
        accept = self.rng.random(m.z.shape[0]) * den < num
        self._apply(np.where(accept, proposal, m.z))

    def _iteration_seconds(self) -> float:
        """O(1)-per-token MH + O(V*K) alias rebuild, CPU roofline."""
        t = self.corpus.num_tokens
        build_bytes = 8.0 * self.k * self.corpus.num_words  # alias rebuild
        token_bytes = 2 * 3.0 * 64.0 * t  # 2 passes x ~3 cache lines
        working_set = self.model.phi.size * 4 + self.model.theta.size * 4 + t * 4
        factor = cpu_cache_bandwidth_factor(self.cpu, working_set)
        cost = KernelCost(
            bytes_read=build_bytes + token_bytes,
            bytes_written=8.0 * t,
            flops=30.0 * t,
        )
        return cpu_kernel_time(self.cpu, cost.scaled(1.0 / min(factor, 8.0)))

    def _iterate(self) -> float:
        self._doc_proposal_pass()
        self._word_alias_pass()
        return self._iteration_seconds()
