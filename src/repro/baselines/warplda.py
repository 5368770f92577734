"""WarpLDA-style CPU baseline: Metropolis-Hastings with cycle proposals.

WarpLDA [10] is the paper's CPU comparison point (Table 4, Figures 7-8).
Its design: O(1)-per-token Metropolis-Hastings sampling with alternating
**document proposals** (``q(k) ~ theta[d,k] + alpha``, drawn by copying
the topic of a random token of the same document) and **word proposals**
(``q(k) ~ phi[k,v] + beta``, drawn from per-word alias tables), with
delayed count updates so each pass streams memory cache-efficiently.

Both passes are implemented for real (vectorised over all tokens), so the
convergence curve in Figure 8 comes from genuine MH dynamics — slightly
slower per iteration than exact CGS, as in the paper's plots.

Clock: per-token cost is a handful of *random* memory accesses; each
charges a cache line, discounted by the LLC model while the working set
fits (this is WarpLDA's cache-efficiency claim, and it erodes exactly as
Section 3.2 argues when data grows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.plain_cgs import DenseStateTrainer
from repro.core.config import check_num_topics
from repro.corpus.document import Corpus
from repro.gpusim.cache import cpu_cache_bandwidth_factor
from repro.gpusim.clock import KernelCost, cpu_kernel_time
from repro.gpusim.platform import XEON_E5_2690_V4
from repro.gpusim.spec import CpuSpec

#: Random memory touches per token per MH pass (z of the proposal token,
#: two theta entries, two phi entries, a topic total).
RANDOM_ACCESSES_PER_PASS = 3.2
CACHE_LINE_BYTES = 64


@dataclass(frozen=True)
class WarpLdaConfig:
    """Configuration of the WarpLDA baseline."""

    num_topics: int
    alpha: float | None = None
    beta: float | None = None
    mh_rounds: int = 1  # doc+word proposal pairs per token per iteration
    seed: int = 0

    def __post_init__(self) -> None:
        check_num_topics(self.num_topics)
        if self.mh_rounds < 1:
            raise ValueError("mh_rounds must be >= 1")


class WarpLdaTrainer(DenseStateTrainer):
    """MH-based CPU LDA trainer with a simulated CPU clock."""

    DESCRIPTION = "WarpLDA-style CPU Metropolis-Hastings baseline (cycle proposals)"

    def __init__(
        self,
        corpus: Corpus,
        config: WarpLdaConfig,
        cpu: CpuSpec = XEON_E5_2690_V4,
        working_set_override: float | None = None,
    ):
        """``working_set_override`` (bytes) prices the cache model as if
        the corpus were that large.  Benches use it so a scaled-down
        stand-in corpus is timed like the full-scale dataset it mimics
        (at small scale everything fits the LLC and the CPU would look
        unrealistically fast — the exact effect Section 3.2 describes)."""
        if working_set_override is not None and working_set_override <= 0:
            raise ValueError("working_set_override must be positive")
        super().__init__(
            corpus, config.num_topics, config.alpha, config.beta, config.seed
        )
        self.cpu = cpu
        self.doc_offsets = corpus.doc_offsets
        self.doc_lengths = corpus.doc_lengths().astype(np.int64)
        self.config = config
        self.working_set_override = working_set_override

    # -- MH passes (vectorised, delayed updates) ----------------------------

    def _doc_proposal_pass(self) -> None:
        """Propose from q(k) ~ theta[d,k] + alpha for every token at once.

        Drawing from theta+alpha without materialising it: with prob
        ``alpha*K / (alpha*K + L_d)`` a uniform topic, otherwise the topic
        of a uniformly chosen token of the same document (whose topics
        *are* the theta counts).  Acceptance keeps only the phi/totals
        ratio — the theta terms cancel against the proposal.
        """
        m = self.model
        t = m.z.shape[0]
        beta_v = self.beta * self.corpus.num_words
        # proposal draw
        l_d = self.doc_lengths[self.doc_ids]
        smooth = self.rng.random(t) * (self.alpha * self.k + l_d) < (
            self.alpha * self.k
        )
        rand_pos = self.doc_offsets[self.doc_ids] + (
            self.rng.random(t) * l_d
        ).astype(np.int64)
        proposal = np.where(
            smooth,
            self.rng.integers(0, self.k, size=t),
            m.z[np.minimum(rand_pos, self.doc_offsets[self.doc_ids + 1] - 1)],
        )
        # acceptance ratio: [(phi[z',v]+b)(N_z+bV)] / [(phi[z,v]+b)(N_z'+bV)]
        num = (m.phi[proposal, self.word_ids] + self.beta) * (
            m.topic_totals[m.z] + beta_v
        )
        den = (m.phi[m.z, self.word_ids] + self.beta) * (
            m.topic_totals[proposal] + beta_v
        )
        accept = self.rng.random(t) * den < num
        self._apply(np.where(accept, proposal, m.z))

    def _apply(self, z_new: np.ndarray) -> None:
        """Delayed update: reconcile counts with the new assignments."""
        m = self.model
        changed = z_new != m.z
        if np.any(changed):
            d = self.doc_ids[changed]
            v = self.word_ids[changed]
            zo = m.z[changed]
            zn = z_new[changed]
            np.subtract.at(m.theta, (d, zo), 1)
            np.add.at(m.theta, (d, zn), 1)
            np.subtract.at(m.phi, (zo, v), 1)
            np.add.at(m.phi, (zn, v), 1)
            m.topic_totals -= np.bincount(zo, minlength=self.k)
            m.topic_totals += np.bincount(zn, minlength=self.k)
        m.z = z_new.copy()

    def _word_proposal_pass(self) -> None:
        """Propose from q(k) ~ phi[k,v] + beta for every token at once.

        WarpLDA draws these from per-word alias tables rebuilt once per
        pass (delayed update).  The simulation draws from the *same
        distribution* with one vectorised search over per-word CDFs —
        O(1) alias lookups and CDF searches are interchangeable
        functionally; only the cost model speaks for the alias structure.
        Acceptance keeps the theta/totals ratio.
        """
        m = self.model
        t = m.z.shape[0]
        k = self.k
        beta_v = self.beta * self.corpus.num_words
        weights = m.phi.astype(np.float64) + self.beta  # K x V
        cdf = np.cumsum(weights, axis=0)
        flat = (cdf / cdf[-1, :][None, :]).T.ravel()
        flat += np.repeat(np.arange(self.corpus.num_words, dtype=np.float64), k)
        u = self.rng.random(t)
        proposal = (
            np.searchsorted(flat, self.word_ids + u, side="right")
            - self.word_ids * k
        )
        proposal = np.clip(proposal, 0, k - 1)
        num = (m.theta[self.doc_ids, proposal] + self.alpha) * (
            m.topic_totals[m.z] + beta_v
        )
        den = (m.theta[self.doc_ids, m.z] + self.alpha) * (
            m.topic_totals[proposal] + beta_v
        )
        accept = self.rng.random(t) * den < num
        self._apply(np.where(accept, proposal, m.z))

    # -- simulated clock ------------------------------------------------------

    def _iteration_seconds(self) -> float:
        """CPU time of one iteration under the cache-aware roofline."""
        t = self.corpus.num_tokens
        passes = 2 * self.config.mh_rounds
        if self.working_set_override is not None:
            working_set = self.working_set_override
        else:
            working_set = (
                self.model.phi.size * 4 + self.model.theta.size * 4 + t * 4
            )
        factor = cpu_cache_bandwidth_factor(self.cpu, working_set)
        cost = KernelCost(
            bytes_read=RANDOM_ACCESSES_PER_PASS * CACHE_LINE_BYTES * t * passes,
            bytes_written=8.0 * t * passes,
            flops=20.0 * t * passes,
        )
        # factor > 1 when the set fits in cache; clamp into the clock's domain.
        return cpu_kernel_time(self.cpu, cost.scaled(1.0 / min(factor, 8.0)))

    def _iterate(self) -> float:
        for _r in range(self.config.mh_rounds):
            self._doc_proposal_pass()
            self._word_proposal_pass()
        return self._iteration_seconds()

    def describe(self) -> dict:
        return {
            **super().describe(),
            "cpu": self.cpu.name,
            "mh_rounds": self.config.mh_rounds,
        }
