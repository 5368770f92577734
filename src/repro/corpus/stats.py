"""Corpus statistics: the Table 3 columns plus sparsity diagnostics.

Section 7.1 of the paper explains throughput warm-up in terms of the
document-length distribution (NYTimes mean 332 vs PubMed mean 92), so the
stats object exposes exactly those quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus.document import Corpus


@dataclass(frozen=True)
class CorpusStats:
    """Summary statistics of a corpus (cf. Table 3)."""

    num_tokens: int
    num_docs: int
    num_words: int
    mean_doc_len: float
    median_doc_len: float
    max_doc_len: int
    num_empty_docs: int
    distinct_doc_word_pairs: int


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Compute :class:`CorpusStats` for ``corpus`` in one pass."""
    lengths = corpus.doc_lengths()
    if corpus.num_docs == 0:
        raise ValueError("cannot compute stats of a corpus with no documents")
    if corpus.num_tokens:
        doc_ids = corpus.token_doc_ids().astype(np.int64)
        pair_keys = doc_ids * corpus.num_words + corpus.word_ids.astype(np.int64)
        distinct_pairs = int(np.unique(pair_keys).size)
    else:
        distinct_pairs = 0
    return CorpusStats(
        num_tokens=corpus.num_tokens,
        num_docs=corpus.num_docs,
        num_words=corpus.num_words,
        mean_doc_len=float(lengths.mean()) if lengths.size else 0.0,
        median_doc_len=float(np.median(lengths)) if lengths.size else 0.0,
        max_doc_len=int(lengths.max()) if lengths.size else 0,
        num_empty_docs=int((lengths == 0).sum()),
        distinct_doc_word_pairs=distinct_pairs,
    )
