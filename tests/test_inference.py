"""Fold-in on unseen documents: what the served mixtures mean.

Hand-built and trained models served through :class:`InferenceSession`.
The session's contract (determinism, validation, batching) is pinned in
tests/test_inference_session.py; these cases check that its mixtures put
the mass where the model says it belongs.
"""

import numpy as np
import pytest

from repro.core import CuLdaTrainer, TrainerConfig
from repro.corpus.synthetic import generate_labelled_corpus, small_spec
from repro.model import InferenceSession, TopicModel


@pytest.fixture(scope="module")
def sharp_model():
    """A model with two sharply separated topics for predictable fold-in."""
    # topic 0 -> words 0..4, topic 1 -> words 5..9
    phi = np.zeros((2, 10), dtype=np.int64)
    phi[0, :5] = 100
    phi[1, 5:] = 100
    model = TopicModel(phi, phi.sum(axis=1), alpha=0.5, beta=0.01)
    return InferenceSession(model, num_sweeps=30, burn_in=10)


def _mixture(session, doc, **schedule):
    return session.transform([np.array(doc)], **schedule)[0]


class TestFoldIn:
    def test_sharp_document_resolves(self, sharp_model):
        mix = _mixture(sharp_model, [0, 1, 2, 3, 4, 0, 1])
        assert mix[0] > 0.8
        assert mix.sum() == pytest.approx(1.0)

    def test_opposite_document(self, sharp_model):
        mix = _mixture(sharp_model, [5, 6, 7, 8, 9])
        assert mix[1] > 0.8

    def test_mixed_document(self, sharp_model):
        mix = _mixture(sharp_model, [0, 1, 2, 5, 6, 7], num_sweeps=40, burn_in=15)
        assert 0.25 < mix[0] < 0.75  # genuinely mixed


class TestAgainstTrainedModel:
    def test_recovers_heldout_document_topics(self):
        """Train on labelled data; fold-in must separate unseen docs."""
        spec = small_spec(
            num_docs=300, num_words=250, mean_doc_len=40, num_topics=4,
            word_beta=0.005,
        )
        corpus, z_true = generate_labelled_corpus(spec, seed=11)
        train = corpus.subset(0, 250)
        test = corpus.subset(250, 300)
        cfg = TrainerConfig(num_topics=8, seed=0)
        trainer = CuLdaTrainer(train, cfg)
        trainer.train(25, compute_likelihood_every=0)
        session = InferenceSession(
            TopicModel.from_state(trainer.state), num_sweeps=20, burn_in=8
        )
        mixes = session.transform(test)
        assert mixes.shape == (test.num_docs, 8)
        assert np.allclose(mixes.sum(axis=1), 1.0)
        # Most held-out documents should concentrate on few topics
        # (generative docs with alpha=0.1 are sparse mixtures).
        top_share = mixes.max(axis=1)
        # K=8 over 4 planted topics: mixtures concentrate well above the
        # uniform 1/K = 0.125 baseline even when mass splits across
        # duplicate topics.
        assert np.median(top_share) > 0.25

    def test_log_predictive_prefers_right_mixture(self, sharp_model):
        doc = np.array([0, 1, 2, 0, 3])
        good = np.array([0.95, 0.05])
        bad = np.array([0.05, 0.95])
        assert sharp_model.log_predictive(doc, good) > sharp_model.log_predictive(
            doc, bad
        )
