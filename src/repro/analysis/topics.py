"""Topic quality metrics: coherence, diversity, distributions.

Throughput says nothing about whether the topics are any good; these are
the standard qualitative metrics used alongside LDA systems papers:

- **UMass coherence** (Mimno et al. 2011): mean log of smoothed
  co-document frequency over a topic's top word pairs; higher (closer to
  0) = more coherent.
- **topic diversity**: fraction of unique words among all topics' top-N
  lists; near 1 = topics use distinct vocabulary.
- normalized topic-word / topic-share distributions for reporting.
"""

from __future__ import annotations

import numpy as np

from repro.corpus.document import Corpus
from repro.core.model import LdaState
from repro.model.artifact import top_word_ids


def top_words_matrix(state, top_n: int = 10) -> np.ndarray:
    """``[K, min(top_n, V)]`` word ids per topic of any state with a
    ``phi`` (:func:`~repro.model.artifact.top_word_ids`'s rule)."""
    return top_word_ids(state.phi, top_n)


def umass_coherence(
    corpus: Corpus, top_words: np.ndarray, epsilon: float = 1.0
) -> np.ndarray:
    """UMass coherence per topic over the given top-word lists.

    ``C(t) = mean over pairs (i < j) of log[(D(w_j, w_i) + eps) / D(w_i)]``
    where ``D(w)`` is the word's document frequency and ``D(a, b)`` the
    co-document frequency, computed on ``corpus``.
    """
    if top_words.ndim != 2:
        raise ValueError("top_words must be 2-D (K x N)")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    # document frequency per word, and doc-word incidence for co-frequency
    num_docs = corpus.num_docs
    doc_ids = corpus.token_doc_ids().astype(np.int64)
    keys = np.unique(doc_ids * corpus.num_words + corpus.word_ids.astype(np.int64))
    inc_docs = keys // corpus.num_words
    inc_words = keys % corpus.num_words
    # doc sets per word of interest only (keep it sparse).
    wanted = np.unique(top_words)
    docsets = {
        int(w): frozenset(inc_docs[inc_words == w].tolist()) for w in wanted
    }
    out = np.empty(top_words.shape[0], dtype=np.float64)
    for t in range(top_words.shape[0]):
        words = top_words[t]
        scores = []
        for j in range(1, words.shape[0]):
            for i in range(j):
                di = docsets[int(words[i])]
                if not di:
                    continue
                co = len(di & docsets[int(words[j])])
                scores.append(np.log((co + epsilon) / len(di)))
        out[t] = float(np.mean(scores)) if scores else 0.0
    return out


def topic_diversity(top_words: np.ndarray) -> float:
    """Unique fraction of all topics' top words (Dieng et al. 2020)."""
    if top_words.size == 0:
        raise ValueError("empty top_words")
    return float(np.unique(top_words).size / top_words.size)


def topic_shares(state: LdaState) -> np.ndarray:
    """Fraction of corpus tokens assigned to each topic (sums to 1)."""
    totals = state.topic_totals.astype(np.float64)
    s = totals.sum()
    if s <= 0:
        raise ValueError("model has no assigned tokens")
    return totals / s


def effective_topics(state: LdaState) -> float:
    """Perplexity of the topic-share distribution: how many topics are
    really in use (K if uniform, ~1 if collapsed onto one topic)."""
    p = topic_shares(state)
    nz = p[p > 0]
    return float(np.exp(-(nz * np.log(nz)).sum()))
