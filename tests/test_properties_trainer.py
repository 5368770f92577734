"""Property tests on the full trainer: invariants under random configs.

These sweep the configuration space (G, M, K, optimization flags, warp
width) with hypothesis and assert the properties that must hold for
*every* configuration — token conservation, valid state, positive
simulated time, reproducibility.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CuLdaTrainer, TrainerConfig
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec
from repro.gpusim.platform import TITAN_XP_PASCAL
from repro.gpusim.spec import DeviceSpec

#: An AMD-class device (Section 2.2: warps are "64 on AMD GPUs"), not a
#: Table 2 platform: it exercises the warp-size generality of the kernel
#: geometry and the index-tree fanout (MI50-class numbers).
AMD_MI50_GCN = DeviceSpec(
    name="MI50",
    arch="GCN",
    mem_bandwidth_gbps=1024.0,
    peak_gflops=13_300.0,
    num_sms=60,
    shared_mem_per_sm_kb=64,
    l1_kb_per_sm=16,
    memory_gb=16.0,
    mem_efficiency=0.55,
    compute_efficiency=0.35,
    atomic_gops=24.0,
    warp_size=64,
)

CORPUS = generate_synthetic_corpus(
    small_spec(num_docs=90, num_words=120, mean_doc_len=20, num_topics=6),
    seed=55,
)

config_strategy = st.builds(
    TrainerConfig,
    num_topics=st.sampled_from([4, 16, 64]),
    num_gpus=st.sampled_from([1, 2, 3]),
    chunks_per_gpu=st.sampled_from([1, 2]),
    compress=st.booleans(),
    share_p2_tree=st.booleans(),
    use_l1_for_indices=st.booleans(),
    overlap_transfers=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)


class TestTrainerProperties:
    @settings(max_examples=12)
    @given(config_strategy)
    def test_invariants_for_any_config(self, cfg):
        t = CuLdaTrainer(CORPUS, cfg, device_spec=TITAN_XP_PASCAL)
        hist = t.train(2, compute_likelihood_every=0)
        t.state.validate()
        assert int(t.state.phi.sum(dtype=np.int64)) == CORPUS.num_tokens
        assert all(r.sim_seconds > 0 for r in hist)
        assert all(0 <= r.p1_fraction <= 1 for r in hist)

    @settings(max_examples=6)
    @given(st.integers(min_value=0, max_value=2**16))
    def test_same_seed_same_model(self, seed):
        cfg = TrainerConfig(num_topics=8, seed=seed)
        a = CuLdaTrainer(CORPUS, cfg, device_spec=TITAN_XP_PASCAL)
        b = CuLdaTrainer(CORPUS, cfg, device_spec=TITAN_XP_PASCAL)
        a.train(2, compute_likelihood_every=0)
        b.train(2, compute_likelihood_every=0)
        assert np.array_equal(a.state.phi, b.state.phi)

    @settings(max_examples=6)
    @given(
        st.integers(min_value=0, max_value=2**16),
        st.sampled_from([1, 2, 3]),
    )
    def test_device_spec_never_changes_the_model(self, seed, gpus):
        """The functional trajectory is clock-independent (replay's basis)."""
        cfg = TrainerConfig(num_topics=8, num_gpus=gpus, seed=seed)
        a = CuLdaTrainer(CORPUS, cfg, device_spec=TITAN_XP_PASCAL)
        b = CuLdaTrainer(CORPUS, cfg, device_spec=AMD_MI50_GCN)
        a.train(2, compute_likelihood_every=0)
        b.train(2, compute_likelihood_every=0)
        assert np.array_equal(a.state.phi, b.state.phi)


class TestWarp64:
    def test_amd_warp_width(self):
        assert AMD_MI50_GCN.warp_size == 64

    def test_training_on_warp64_device(self):
        """Section 2.2: warps are 64-wide on AMD; everything must work."""
        cfg = TrainerConfig(num_topics=16, seed=0)
        t = CuLdaTrainer(CORPUS, cfg, device_spec=AMD_MI50_GCN)
        hist = t.train(3)
        t.state.validate()
        assert hist[-1].tokens_per_sec > 0

    def test_tree_fanout64(self):
        from repro.core.tree import IndexTree

        rng = np.random.default_rng(2)
        w = rng.random(500)
        t64 = IndexTree(w, fanout=64)
        t32 = IndexTree(w, fanout=32)
        u = rng.random(64)
        a = t64.batch_search(u * t64.total)
        b = t32.batch_search(u * t32.total)
        # identical up to boundary rounding (see tree tests)
        assert np.mean(a == b) > 0.95
