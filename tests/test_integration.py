"""End-to-end integration tests across the whole library."""

import numpy as np

from repro.core import CuLdaTrainer, TrainerConfig
from repro.corpus.document import Corpus
from repro.corpus.synthetic import generate_labelled_corpus, small_spec


class TestTopicRecovery:
    def test_planted_structure_recovered(self):
        """Training must recover planted topics: for most generative
        topics some inferred topic concentrates on its word set."""
        spec = small_spec(
            num_docs=400, num_words=300, mean_doc_len=50, num_topics=5,
            word_beta=0.002, topic_alpha=0.05,
        )
        corpus, z_true = generate_labelled_corpus(spec, seed=17)
        cfg = TrainerConfig(num_topics=10, num_gpus=2, seed=0)
        trainer = CuLdaTrainer(corpus, cfg)
        trainer.train(30, compute_likelihood_every=0)
        trainer.state.validate()

        # word sets of the generative topics (from the planted labels)
        recovered = 0
        for k_true in range(5):
            words_k = np.unique(corpus.word_ids[z_true == k_true])
            weight = np.array(
                [
                    trainer.state.phi[k, words_k].sum()
                    / max(1, trainer.state.topic_totals[k])
                    for k in range(10)
                ]
            )
            if weight.max() > 0.5:
                recovered += 1
        assert recovered >= 4, f"only {recovered}/5 planted topics recovered"

    def test_training_beats_shuffled_corpus(self):
        """Structure matters: LL gain on real data exceeds gain on data
        with the same margins but shuffled document membership."""
        spec = small_spec(num_docs=200, num_words=250, mean_doc_len=40, num_topics=5)
        corpus, _ = generate_labelled_corpus(spec, seed=23)
        rng = np.random.default_rng(0)
        shuffled_words = corpus.word_ids.copy()
        rng.shuffle(shuffled_words)
        shuffled = Corpus(corpus.doc_offsets.copy(), shuffled_words, corpus.num_words)

        def gain(c):
            t = CuLdaTrainer(c, TrainerConfig(num_topics=10, seed=0))
            h = t.train(15)
            return h[-1].log_likelihood_per_token - h[0].log_likelihood_per_token

        assert gain(corpus) > gain(shuffled) + 0.2


class TestCompressionSafety:
    def test_uint16_topics_exact_at_boundary(self):
        """Topic ids up to 65535 must round-trip through uint16 storage."""
        from repro.corpus.encoding import topic_dtype_for

        dt = topic_dtype_for(65536, compress=True)
        arr = np.array([0, 65535], dtype=dt)
        assert int(arr[1]) == 65535


class TestPublicSurface:
    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_subpackage_exports(self):
        import repro.analysis as a
        import repro.baselines as b
        import repro.corpus as c
        import repro.gpusim as g

        for mod in (a, b, c, g):
            for name in mod.__all__:
                assert getattr(mod, name) is not None, f"{mod.__name__}.{name}"

    def test_version(self):
        import repro

        assert repro.__version__ == "2.0.0"


class TestDeterminismAcrossFeatures:
    def test_full_pipeline_reproducible(self, tmp_path):
        """Train -> save -> reload -> fold-in is seed-deterministic."""
        from repro.model import InferenceSession, TopicModel

        spec = small_spec(num_docs=100, num_words=150, mean_doc_len=25)
        corpus, _ = generate_labelled_corpus(spec, seed=5)

        def run():
            t = CuLdaTrainer(corpus, TrainerConfig(num_topics=8, seed=4))
            t.train(5, compute_likelihood_every=0)
            p = tmp_path / "m.npz"
            TopicModel.from_state(t.state).save(p)
            session = InferenceSession(TopicModel.load(p))
            return session.transform([corpus.document(0).word_ids], seed=1)

        assert np.array_equal(run(), run())
