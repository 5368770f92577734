"""Tests for held-out document-completion evaluation."""

import numpy as np
import pytest

from repro.analysis.heldout import document_completion, split_documents
from repro.core import CuLdaTrainer, TrainerConfig
from repro.corpus.document import Corpus
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec
from repro.model import ScoreResult, TopicModel


class TestSplit:
    def test_split_partitions_tokens(self, small_corpus):
        obs, held = split_documents(small_corpus, 0.5, seed=0)
        assert len(obs) == len(held)
        total = sum(o.shape[0] + h.shape[0] for o, h in zip(obs, held))
        skipped = sum(
            1 for d in range(small_corpus.num_docs)
            if small_corpus.doc_length(d) < 2
        )
        expected = small_corpus.num_tokens - sum(
            small_corpus.doc_length(d)
            for d in range(small_corpus.num_docs)
            if small_corpus.doc_length(d) < 2
        )
        assert total == expected
        assert len(obs) == small_corpus.num_docs - skipped

    def test_both_halves_nonempty(self, small_corpus):
        obs, held = split_documents(small_corpus, 0.5, seed=1)
        assert all(o.shape[0] >= 1 for o in obs)
        assert all(h.shape[0] >= 1 for h in held)

    def test_fraction_respected(self, small_corpus):
        obs, held = split_documents(small_corpus, 0.75, seed=0)
        ratio = sum(o.shape[0] for o in obs) / (
            sum(o.shape[0] for o in obs) + sum(h.shape[0] for h in held)
        )
        assert ratio == pytest.approx(0.75, abs=0.05)

    def test_invalid_fraction(self, small_corpus):
        with pytest.raises(ValueError):
            split_documents(small_corpus, 0.0)
        with pytest.raises(ValueError):
            split_documents(small_corpus, 1.0)

    def test_tiny_docs_skipped(self):
        c = Corpus.from_token_lists([[0], [1, 0, 1]], num_words=2)
        obs, held = split_documents(c)
        assert len(obs) == 1

    def test_deterministic(self, small_corpus):
        a = split_documents(small_corpus, seed=5)
        b = split_documents(small_corpus, seed=5)
        for x, y in zip(a[0], b[0]):
            assert np.array_equal(x, y)


class TestSplitEdgeCases:
    def test_zero_token_docs_skipped(self):
        c = Corpus.from_token_lists([[], [1, 0, 1], []], num_words=2)
        obs, held = split_documents(c)
        assert len(obs) == len(held) == 1

    def test_one_token_docs_skipped(self):
        c = Corpus.from_token_lists([[0], [1], [0, 1]], num_words=2)
        obs, held = split_documents(c)
        assert len(obs) == 1
        assert obs[0].shape[0] + held[0].shape[0] == 2

    def test_all_docs_too_small_gives_empty_lists(self):
        c = Corpus.from_token_lists([[0], [], [1]], num_words=2)
        obs, held = split_documents(c)
        assert obs == [] and held == []

    def test_two_token_doc_splits_one_and_one(self):
        c = Corpus.from_token_lists([[0, 1]], num_words=2)
        for frac in (0.01, 0.5, 0.99):
            obs, held = split_documents(c, observed_fraction=frac)
            assert obs[0].shape[0] == 1 and held[0].shape[0] == 1

    @pytest.mark.parametrize("frac", [1e-9, 0.999999])
    def test_extreme_fractions_keep_both_halves_nonempty(
        self, small_corpus, frac
    ):
        obs, held = split_documents(small_corpus, observed_fraction=frac)
        assert all(o.shape[0] >= 1 for o in obs)
        assert all(h.shape[0] >= 1 for h in held)

    @pytest.mark.parametrize("frac", [-0.5, 0.0, 1.0, 1.5, np.nan])
    def test_out_of_range_fractions_rejected(self, small_corpus, frac):
        with pytest.raises(ValueError, match="observed_fraction"):
            split_documents(small_corpus, observed_fraction=frac)

    def test_different_seeds_differ(self, small_corpus):
        a = split_documents(small_corpus, seed=1)
        b = split_documents(small_corpus, seed=2)
        assert any(
            not np.array_equal(x, y) for x, y in zip(a[0], b[0])
        )

    def test_split_preserves_multiset_per_document(self, small_corpus):
        obs, held = split_documents(small_corpus, 0.5, seed=3)
        kept = [
            d for d in range(small_corpus.num_docs)
            if small_corpus.doc_length(d) >= 2
        ]
        for (o, h, d) in zip(obs, held, kept):
            orig = np.sort(small_corpus.document(d).word_ids)
            assert np.array_equal(np.sort(np.concatenate([o, h])), orig)


class TestDocumentCompletion:
    @pytest.fixture(scope="class")
    def trained(self):
        corpus = generate_synthetic_corpus(
            small_spec(num_docs=250, num_words=300, mean_doc_len=40, num_topics=6),
            seed=21,
        )
        train = corpus.subset(0, 200)
        test = corpus.subset(200, 250)
        cfg = TrainerConfig(num_topics=12, seed=0)
        t = CuLdaTrainer(train, cfg)
        t.train(20, compute_likelihood_every=0)
        return TopicModel.from_state(t.state), test

    def test_result_shape(self, trained):
        model, test = trained
        res = document_completion(model, test, num_sweeps=15, burn_in=5)
        assert isinstance(res, ScoreResult)
        assert res.num_documents == test.num_docs
        assert res.num_scored_tokens > 0
        assert res.log_predictive_per_token < 0
        assert res.perplexity == pytest.approx(
            np.exp(-res.log_predictive_per_token)
        )

    def test_trained_beats_untrained(self, trained):
        """Training must improve held-out predictive probability."""
        model, test = trained
        rng = np.random.default_rng(0)
        random_phi = rng.integers(0, 3, size=(model.num_topics, model.num_words))
        random_model = TopicModel(
            random_phi, random_phi.sum(axis=1), model.alpha, model.beta
        )
        good = document_completion(model, test, num_sweeps=12, burn_in=4)
        bad = document_completion(random_model, test, num_sweeps=12, burn_in=4)
        assert good.log_predictive_per_token > bad.log_predictive_per_token
        assert good.perplexity < bad.perplexity

    def test_empty_corpus_rejected(self, trained):
        model, _ = trained
        single = Corpus.from_token_lists([[0]], num_words=model.num_words)
        with pytest.raises(ValueError, match="no documents"):
            document_completion(model, single)

    def test_rejects_other_model_types(self, trained):
        _, test = trained
        with pytest.raises(TypeError, match="TopicModel or InferenceSession"):
            document_completion(object(), test)
