"""Synthetic corpus generation via the LDA generative process.

The paper evaluates on NYTimes (D=299,752, V=101,636, T=99.5M, mean doc
length 332) and PubMed (D=8.2M, V=141,043, T=737.9M, mean doc length 92).
Neither dataset ships with this repository, so we generate corpora *from
the LDA generative model itself* with matching shape statistics:

- the D : V : mean-length ratios of the preset are preserved at any scale;
- document lengths are drawn from a log-normal fitted to the preset mean
  (real-text document lengths are heavy-tailed);
- word frequencies inherit a Zipf-like skew from sparse Dirichlet topics.

Because the data really is a topic mixture, Gibbs samplers *converge* on it
the same way they do on text — which is what Figures 7 and 8 measure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.corpus.document import Corpus
from repro.corpus.vocab import Vocabulary


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape parameters for a synthetic corpus.

    Attributes
    ----------
    name:
        Human-readable label used in benchmark output.
    num_docs:
        ``D``, the number of documents to generate.
    num_words:
        ``V``, the vocabulary size.
    mean_doc_len:
        Target mean document length (tokens); the generator draws
        lengths from a log-normal with this mean.
    doc_len_sigma:
        Log-normal shape parameter; larger = heavier tail.
    num_topics:
        Number of *true* topics used by the generative process (this is
        independent of the ``K`` a trainer later infers).
    topic_alpha:
        Dirichlet concentration of per-document topic mixtures.
    word_beta:
        Dirichlet concentration of per-topic word distributions; small
        values yield the Zipf-like sparse word profiles of real text.
    """

    name: str
    num_docs: int
    num_words: int
    mean_doc_len: float
    doc_len_sigma: float = 0.8
    num_topics: int = 50
    topic_alpha: float = 0.1
    word_beta: float = 0.01

    def __post_init__(self) -> None:
        if self.num_docs <= 0:
            raise ValueError(f"num_docs must be positive, got {self.num_docs}")
        if self.num_words <= 1:
            raise ValueError(f"num_words must be > 1, got {self.num_words}")
        if self.mean_doc_len <= 0:
            raise ValueError(f"mean_doc_len must be positive, got {self.mean_doc_len}")
        if self.num_topics <= 0:
            raise ValueError(f"num_topics must be positive, got {self.num_topics}")
        if self.topic_alpha <= 0 or self.word_beta <= 0:
            raise ValueError("Dirichlet concentrations must be positive")

    def scaled(self, factor: float) -> SyntheticSpec:
        """Return a spec with D and V scaled by ``factor`` (ratios preserved).

        Mean document length is kept fixed: it is an intensive property of
        the corpus (NYTimes articles stay ~332 tokens long no matter how
        many of them you collect), and it is the property Section 7.1 uses
        to explain the NYTimes-vs-PubMed warm-up difference.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return replace(
            self,
            name=f"{self.name}@x{factor:g}",
            num_docs=max(1, int(round(self.num_docs * factor))),
            num_words=max(2, int(round(self.num_words * factor))),
        )

    @property
    def approx_tokens(self) -> int:
        """Expected total token count ``T ~= D * mean_doc_len``."""
        return int(self.num_docs * self.mean_doc_len)


#: Full-scale NYTimes shape (Table 3). Use ``.scaled(...)`` for laptop runs.
NYTIMES_LIKE = SyntheticSpec(
    name="nytimes-like",
    num_docs=299_752,
    num_words=101_636,
    mean_doc_len=332.0,
    doc_len_sigma=0.7,
    num_topics=100,
)

#: Full-scale PubMed shape (Table 3): many more, much shorter documents.
PUBMED_LIKE = SyntheticSpec(
    name="pubmed-like",
    num_docs=8_200_000,
    num_words=141_043,
    mean_doc_len=90.0,
    doc_len_sigma=0.5,
    num_topics=100,
)


def _draw_doc_lengths(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Log-normal document lengths with mean ``spec.mean_doc_len``, min 1."""
    sigma = spec.doc_len_sigma
    # mean of lognormal(mu, sigma) is exp(mu + sigma^2/2)
    mu = np.log(spec.mean_doc_len) - 0.5 * sigma * sigma
    lengths = rng.lognormal(mean=mu, sigma=sigma, size=spec.num_docs)
    return np.maximum(1, np.round(lengths)).astype(np.int64)


def generate_synthetic_corpus(
    spec: SyntheticSpec,
    seed: int | None = 0,
    with_vocabulary: bool = False,
) -> Corpus:
    """Generate a corpus from the LDA generative process.

    For each document: draw a topic mixture ``theta_d ~ Dir(alpha)``; for
    each token draw a topic ``z ~ Cat(theta_d)`` and a word
    ``w ~ Cat(phi_z)`` where ``phi_k ~ Dir(beta)``.

    The implementation is fully vectorised: all token topics are drawn in
    one pass via per-document Gumbel-free categorical sampling, and words
    are drawn per-topic via ``searchsorted`` on topic CDFs.

    Parameters
    ----------
    spec:
        Shape of the corpus to generate.
    seed:
        Seed for reproducibility; ``None`` for OS entropy.
    with_vocabulary:
        Attach a synthetic :class:`Vocabulary` (``w0..w{V-1}``).
    """
    return _generate(spec, seed, with_vocabulary)[0]


def generate_labelled_corpus(
    spec: SyntheticSpec, seed: int | None = 0
) -> tuple[Corpus, np.ndarray]:
    """Like :func:`generate_synthetic_corpus` but also return true topics.

    Used by tests that check a trainer can *recover* planted structure.
    The returned array is ``int64[T]`` of generative topic assignments.
    """
    return _generate(spec, seed, with_vocabulary=False)


def _generate(
    spec: SyntheticSpec, seed: int | None, with_vocabulary: bool
) -> tuple[Corpus, np.ndarray]:
    """The generative process behind both public generators: ``(corpus, z)``."""
    rng = np.random.default_rng(seed)
    lengths = _draw_doc_lengths(spec, rng)
    total = int(lengths.sum())
    offsets = np.zeros(spec.num_docs + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])

    # Per-topic word distributions: K x V Dirichlet -> CDF rows.
    topic_word = rng.dirichlet(
        np.full(spec.num_words, spec.word_beta), size=spec.num_topics
    )
    topic_cdf = np.cumsum(topic_word, axis=1)
    # Guard against floating error: force the last CDF entry to 1.
    topic_cdf[:, -1] = 1.0

    # Per-document topic mixtures.
    doc_topic = rng.dirichlet(
        np.full(spec.num_topics, spec.topic_alpha), size=spec.num_docs
    )
    doc_topic_cdf = np.cumsum(doc_topic, axis=1)
    doc_topic_cdf[:, -1] = 1.0

    # Draw the topic of every token: document-major token -> its doc's CDF.
    token_docs = np.repeat(np.arange(spec.num_docs, dtype=np.int64), lengths)
    u = rng.random(total)
    # Row-wise searchsorted: add the row index so each doc's CDF occupies a
    # disjoint unit interval of a single flattened sorted array.
    flat_cdf = (doc_topic_cdf + np.arange(spec.num_docs)[:, None]).ravel()
    z = np.searchsorted(flat_cdf, u + token_docs, side="right") - token_docs * spec.num_topics
    z = np.clip(z, 0, spec.num_topics - 1).astype(np.int64)

    # Draw words per token from the token's topic CDF, same flattening trick.
    flat_word_cdf = (topic_cdf + np.arange(spec.num_topics)[:, None]).ravel()
    u2 = rng.random(total)
    w = np.searchsorted(flat_word_cdf, u2 + z, side="right") - z * spec.num_words
    w = np.clip(w, 0, spec.num_words - 1).astype(np.int32)

    vocab = Vocabulary.synthetic(spec.num_words) if with_vocabulary else None
    return Corpus(offsets, w, spec.num_words, vocab), z


def small_spec(
    name: str = "small",
    num_docs: int = 200,
    num_words: int = 500,
    mean_doc_len: float = 60.0,
    num_topics: int = 10,
    **kwargs,
) -> SyntheticSpec:
    """Convenience spec for tests and examples (fits any laptop)."""
    return SyntheticSpec(
        name=name,
        num_docs=num_docs,
        num_words=num_words,
        mean_doc_len=mean_doc_len,
        num_topics=num_topics,
        **kwargs,
    )
