"""Tests for raw-text preprocessing."""

import pytest

from repro.corpus.preprocess import (
    DEFAULT_STOPWORDS,
    build_corpus_from_texts,
    tokenize,
)

DOCS = [
    "The GPU accelerates the LDA sampler, and the GPU is fast.",
    "A sampler draws topics; the sampler is a Gibbs sampler.",
    "GPU kernels and Gibbs sampling: topics from text.",
    "Stock markets fell today as inflation data surprised markets.",
    "Inflation and markets: stock data for the markets today.",
]


class TestTokenize:
    def test_lowercase_words(self):
        assert tokenize("The GPU, the GPU!") == ["the", "gpu", "the", "gpu"]

    def test_drops_numbers_and_punct(self):
        assert tokenize("42 + x9 != 7; ok-ish") == ["x9", "ok", "ish"]

    def test_keeps_apostrophes(self):
        assert tokenize("don't") == ["don't"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("123 456 !!!") == []


class TestBuildCorpus:
    def test_basic_pipeline(self):
        corpus = build_corpus_from_texts(DOCS, min_doc_freq=2)
        assert corpus.num_docs == 5
        assert corpus.vocabulary is not None
        assert "the" not in corpus.vocabulary  # stop word
        assert "gpu" in corpus.vocabulary
        assert "markets" in corpus.vocabulary

    def test_min_doc_freq_prunes(self):
        corpus = build_corpus_from_texts(DOCS, min_doc_freq=2)
        # 'accelerates' appears in 1 doc only -> pruned at df>=2
        assert "accelerates" not in corpus.vocabulary
        assert "gpu" in corpus.vocabulary  # 2 docs

    def test_min_doc_freq_can_prune_everything(self):
        with pytest.raises(ValueError, match="removed every word"):
            build_corpus_from_texts(DOCS, min_doc_freq=4)

    def test_max_doc_freq_prunes_common(self):
        texts = ["common alpha " + w for w in ("x1 x1", "x2 x2", "x3 x3", "x4 x4")]
        corpus = build_corpus_from_texts(
            texts, min_doc_freq=1, max_doc_freq_fraction=0.5
        )
        assert "common" not in corpus.vocabulary  # in 100% of docs
        assert "x1" in corpus.vocabulary

    def test_max_vocab_cap(self):
        corpus = build_corpus_from_texts(DOCS, min_doc_freq=1, max_vocab=5)
        assert corpus.num_words == 5

    def test_vocab_ordered_by_df(self):
        corpus = build_corpus_from_texts(DOCS, min_doc_freq=1)
        # first term must have max document frequency
        v = corpus.vocabulary
        freqs = []
        for tid in v.ids_of(list(v)[:3]):
            docs_with = sum(
                1 for d in range(corpus.num_docs)
                if tid in set(corpus.document(d).word_ids.tolist())
            )
            freqs.append(docs_with)
        assert freqs == sorted(freqs, reverse=True)

    def test_everything_pruned_raises(self):
        with pytest.raises(ValueError, match="removed every word"):
            build_corpus_from_texts(["one two", "three four"], min_doc_freq=5)

    def test_no_documents(self):
        with pytest.raises(ValueError, match="no documents"):
            build_corpus_from_texts([])

    def test_validation(self):
        with pytest.raises(ValueError):
            build_corpus_from_texts(DOCS, min_doc_freq=0)
        with pytest.raises(ValueError):
            build_corpus_from_texts(DOCS, max_doc_freq_fraction=0.0)
        with pytest.raises(ValueError):
            build_corpus_from_texts(DOCS, max_vocab=0)

    def test_stopwords_customisable(self):
        corpus = build_corpus_from_texts(DOCS, stopwords=["gpu"], min_doc_freq=1)
        assert "gpu" not in corpus.vocabulary
        # default list replaced: 'is' (a default stop word, df 2/5) survives
        assert "is" in corpus.vocabulary
        # 'the' is still gone, but via the df filter (3/5 docs > 0.5)
        assert "the" not in corpus.vocabulary

    def test_default_stopwords_frozen(self):
        assert "the" in DEFAULT_STOPWORDS
        assert isinstance(DEFAULT_STOPWORDS, frozenset)

    def test_trains_end_to_end(self):
        """The produced corpus must be trainable."""
        from repro.core import CuLdaTrainer, TrainerConfig

        corpus = build_corpus_from_texts(DOCS * 6, min_doc_freq=2)
        t = CuLdaTrainer(corpus, TrainerConfig(num_topics=4, seed=0))
        hist = t.train(5)
        assert hist[-1].log_likelihood_per_token > hist[0].log_likelihood_per_token - 1
