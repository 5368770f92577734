"""Wide shapes through the sampling kernel.

``sample_chunk`` forms every flattened index it gathers with in the
platform index type (``intp``), so no product of token, topic or word
counts can wrap.  This guard drives a real chunk pass whose token-topic
product ``n * K`` lies past the int32 range and checks that it still
samples valid topics deterministically and conserves counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import TrainerConfig
from repro.core.model import LdaState
from repro.core.rng import RngPool
from repro.core.sampler import sample_chunk
from repro.core.updates import apply_phi_update, verify_phi_consistency
from repro.corpus.synthetic import SyntheticSpec, generate_synthetic_corpus


class TestWidePathIntegration:
    """A real chunk pass where n * K crosses 2**31."""

    @pytest.fixture(scope="class")
    def wide_run(self):
        spec = SyntheticSpec(
            name="wide", num_docs=700, num_words=40, mean_doc_len=48.0,
            doc_len_sigma=0.4, num_topics=4,
        )
        corpus = generate_synthetic_corpus(spec, seed=3)
        n = corpus.num_tokens
        k = 2**31 // n + 1  # smallest K pushing n*K past the int32 range
        assert n * k >= 2**31 and k <= np.iinfo(np.uint16).max + 1
        config = TrainerConfig(num_topics=k, seed=1)
        state = LdaState.initialize(corpus, config)
        return corpus, config, state

    def test_wide_pass_is_consistent_and_deterministic(self, wide_run):
        corpus, config, state = wide_run
        cs = state.chunks[0]

        def draw():
            rng = RngPool(config.seed).chunk_stream(0, 0)
            return sample_chunk(
                cs.chunk, cs.topics, cs.theta, state.phi, state.topic_totals,
                alpha=config.effective_alpha, beta=config.effective_beta,
                rng=rng,
            )

        r1, r2 = draw(), draw()
        z = r1.new_topics.astype(np.int64)
        assert np.array_equal(z, r2.new_topics.astype(np.int64))
        assert z.min() >= 0 and z.max() < config.num_topics
        assert r1.stats.num_p1_draws + r1.stats.num_p2_draws == cs.num_tokens
        # the index arithmetic must keep counts conserved end to end
        phi = state.phi.copy()
        totals = state.topic_totals.copy()
        apply_phi_update(phi, totals, cs.chunk.token_words, cs.topics,
                         r1.new_topics)
        verify_phi_consistency(phi, totals, corpus.num_tokens)
