#!/usr/bin/env python
"""News topic discovery: the paper's motivating text-analysis scenario.

Builds a miniature "newswire" corpus with a hand-crafted vocabulary of
themed sections (politics, sports, technology, finance, science), trains
CuLDA_CGS, and checks that the inferred topics recover the planted
sections — the document-analysis use case the paper's introduction
motivates (Figure 1's CPU/GPU/ML/Car example, writ slightly larger).

    python examples/news_topic_discovery.py
"""

import numpy as np

import repro
from repro.analysis.reporting import render_table
from repro.analysis.topics import top_words_matrix
from repro.corpus.document import Corpus
from repro.corpus.vocab import Vocabulary

SECTIONS = {
    "politics": ["election", "senate", "vote", "policy", "governor", "campaign",
                 "congress", "bill", "debate", "poll"],
    "sports": ["match", "league", "goal", "coach", "season", "playoff",
               "tournament", "striker", "injury", "stadium"],
    "technology": ["gpu", "software", "startup", "chip", "cloud", "algorithm",
                   "network", "device", "compiler", "kernel"],
    "finance": ["market", "stock", "bond", "inflation", "earnings", "merger",
                "dividend", "currency", "hedge", "futures"],
    "science": ["genome", "neuron", "quasar", "enzyme", "particle", "fossil",
                "telescope", "protein", "reactor", "isotope"],
}
COMMON = ["report", "today", "year", "people", "city", "time", "week", "group"]


def build_corpus(seed: int = 0, docs_per_section: int = 120,
                 doc_len: int = 50) -> tuple[Corpus, list[str]]:
    """Each document: 80% words from its section, 20% common filler."""
    terms = [w for ws in SECTIONS.values() for w in ws] + COMMON
    vocab = Vocabulary(terms)
    rng = np.random.default_rng(seed)
    docs, labels = [], []
    for section, words in SECTIONS.items():
        ids = vocab.ids_of(words)
        common_ids = vocab.ids_of(COMMON)
        for _ in range(docs_per_section):
            n_theme = int(0.8 * doc_len)
            # Zipf-ish emphasis inside the section.
            weights = 1.0 / np.arange(1, len(ids) + 1)
            weights /= weights.sum()
            theme = rng.choice(ids, size=n_theme, p=weights)
            filler = rng.choice(common_ids, size=doc_len - n_theme)
            docs.append(np.concatenate([theme, filler]).tolist())
            labels.append(section)
    order = rng.permutation(len(docs))
    docs = [docs[i] for i in order]
    labels = [labels[i] for i in order]
    return Corpus.from_token_lists(docs, len(vocab), vocab), labels


def main() -> None:
    corpus, labels = build_corpus()
    print(f"corpus: {corpus.num_docs} articles, {corpus.num_words} terms, "
          f"{corpus.num_tokens} tokens, {len(SECTIONS)} planted sections")

    trainer = repro.create_trainer("culda", corpus, topics=8, seed=3)
    trainer.fit(40, likelihood_every=5)

    top_words = top_words_matrix(trainer.state, 6)
    rows = []
    for k in range(trainer.config.num_topics):
        if trainer.state.topic_totals[k] < 0.02 * corpus.num_tokens:
            continue  # skip near-empty topics
        top = corpus.vocabulary.terms_of(top_words[k])
        rows.append([k, int(trainer.state.topic_totals[k]), " ".join(top)])
    print("\n" + render_table(["topic", "#tokens", "top words"], rows,
                              title="Inferred topics"))

    # Recovery check: for each planted section, some topic must
    # concentrate on its vocabulary.
    theta = trainer.state.doc_topic_matrix()
    recovered = 0
    for section, words in SECTIONS.items():
        ids = set(corpus.vocabulary.ids_of(words))
        best = max(
            range(trainer.config.num_topics),
            key=lambda k: sum(
                int(trainer.state.phi[k, w]) for w in ids
            ),
        )
        mass_in_section = sum(int(trainer.state.phi[best, w]) for w in ids)
        purity = mass_in_section / max(1, int(trainer.state.topic_totals[best]))
        marker = "recovered" if purity > 0.5 else "mixed"
        if purity > 0.5:
            recovered += 1
        print(f"  {section:12s} -> topic {best} (purity {purity:.2f}, {marker})")
    print(f"\n{recovered}/{len(SECTIONS)} sections recovered cleanly")

    # Documents of the same section should share dominant topics.
    dominant = theta.argmax(axis=1)
    agree = 0
    for section in SECTIONS:
        idx = [i for i, s in enumerate(labels) if s == section]
        counts = np.bincount(dominant[idx], minlength=trainer.config.num_topics)
        agree += counts.max() / len(idx) > 0.6
    print(f"{agree}/{len(SECTIONS)} sections have a >60% dominant topic")


if __name__ == "__main__":
    main()
