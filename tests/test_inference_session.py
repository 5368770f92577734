"""Tests for the batched InferenceSession.

The load-bearing property is the determinism contract: batched
``transform`` must reproduce the sequential one-document-at-a-time
chain of tests/fold_in_oracle.py **bit-for-bit** per document under the
same seed, for any batch size, tiling and worker count.  Everything else
(top_topics, score, validation) builds on that.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from fold_in_oracle import fold_in, two_level_draw
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import create_trainer
from repro.corpus.document import Corpus
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec
from repro.model import InferenceSession, ScoreResult, TopicModel
from repro.model import inference
from repro.model.inference import (
    _BLOCK,
    _MIN_SHARE_DOCS,
    _SWEEP_BLOCK,
    _as_doc_arrays,
)
from repro.perf import Workspace


@pytest.fixture(scope="module")
def trained():
    corpus = generate_synthetic_corpus(
        small_spec(num_docs=150, num_words=200, mean_doc_len=30, num_topics=6),
        seed=21,
    )
    train = corpus.subset(0, 110)
    test = corpus.subset(110, 150)
    trainer = create_trainer("culda", train, topics=10, seed=1)
    trainer.fit(5, likelihood_every=0)
    return trainer, test


@pytest.fixture(scope="module")
def model(trained):
    return trained[0].export_model()


class TestEquivalence:
    def test_matches_sequential_sampler_bitwise(self, trained, model):
        _, test = trained
        ref = fold_in(model, test, num_sweeps=9, burn_in=3, seed=5)
        got = InferenceSession(model, num_sweeps=9, burn_in=3).transform(
            test, seed=5
        )
        assert np.array_equal(ref, got)

    @pytest.mark.parametrize("batch_docs", [1, 3, 1000])
    def test_batch_size_invariant(self, trained, model, batch_docs):
        _, test = trained
        base = InferenceSession(model, num_sweeps=7, burn_in=2).transform(
            test, seed=3
        )
        got = InferenceSession(
            model, num_sweeps=7, burn_in=2, batch_docs=batch_docs
        ).transform(test, seed=3)
        assert np.array_equal(base, got)

    def test_deterministic_under_seed(self, trained, model):
        _, test = trained
        sess = InferenceSession(model, num_sweeps=7, burn_in=2)
        a = sess.transform(test, seed=4)
        b = sess.transform(test, seed=4)
        c = sess.transform(test, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_accepts_token_lists(self, model):
        docs = [np.array([0, 1, 2, 1]), np.array([5, 5, 6])]
        theta = InferenceSession(model, num_sweeps=6, burn_in=2).transform(
            docs, seed=0
        )
        assert theta.shape == (2, model.num_topics)
        assert np.allclose(theta.sum(axis=1), 1.0)

    def test_empty_document_gets_prior(self, model):
        docs = [np.array([], dtype=np.int64), np.array([1, 2, 3])]
        theta = InferenceSession(model, num_sweeps=6, burn_in=2).transform(
            docs, seed=0
        )
        assert np.allclose(theta[0], 1.0 / model.num_topics)
        # the non-empty neighbour still folds in normally
        assert theta[1].max() > 1.0 / model.num_topics

    def test_float32_workspace_does_not_poison_results(self, trained, model):
        """An externally shared float32 workspace must not change draws."""
        _, test = trained
        base = InferenceSession(model, num_sweeps=6, burn_in=2).transform(
            test, seed=1
        )
        shared = InferenceSession(
            model, num_sweeps=6, burn_in=2,
            workspace=Workspace(compute_dtype=np.float32),
        ).transform(test, seed=1)
        assert np.array_equal(base, shared)


class TestConsumption:
    def test_top_topics_shapes_and_order(self, trained, model):
        _, test = trained
        sess = InferenceSession(model, num_sweeps=6, burn_in=2)
        ids, weights = sess.top_topics(test, n=3, seed=0)
        assert ids.shape == (test.num_docs, 3)
        assert weights.shape == ids.shape
        assert np.all(np.diff(weights, axis=1) <= 0)  # descending
        theta = sess.transform(test, seed=0)
        assert np.array_equal(theta[np.arange(test.num_docs), ids[:, 0]],
                              weights[:, 0])

    def test_score_returns_sane_perplexity(self, trained, model):
        _, test = trained
        res = InferenceSession(model, num_sweeps=8, burn_in=3).score(
            test, seed=0
        )
        assert isinstance(res, ScoreResult)
        assert res.num_documents == test.num_docs
        assert res.num_scored_tokens == test.num_tokens
        assert res.log_predictive_per_token < 0
        assert res.perplexity == pytest.approx(
            np.exp(-res.log_predictive_per_token)
        )

    def test_trained_model_scores_better_than_uniform(self, trained, model):
        _, test = trained
        k, v = model.num_topics, model.num_words
        flat_phi = np.ones((k, v), dtype=np.int64)
        flat = TopicModel(flat_phi, flat_phi.sum(axis=1),
                          model.alpha, model.beta)
        good = InferenceSession(model, num_sweeps=8, burn_in=3).score(test)
        bad = InferenceSession(flat, num_sweeps=8, burn_in=3).score(test)
        assert good.perplexity < bad.perplexity

    def test_scoring_reads_the_float64_formula(self, trained, model):
        """Fold-in tiles are float32; scoring stays bit-identical to the
        float64 ``(phi + beta) / (N_k + beta * V)``."""
        _, test = trained
        sess = InferenceSession(model, num_sweeps=6, burn_in=2)
        theta = sess.transform(test, seed=4)
        denom = model.topic_totals.astype(np.float64) + model.beta * model.num_words
        p_star = (model.phi.astype(np.float64) + model.beta) / denom[:, None]
        p_star_t = np.ascontiguousarray(p_star.T)
        total, tokens = 0.0, 0
        for d, w in enumerate(_as_doc_arrays(test)):
            lp = float(np.log(np.maximum(p_star_t[w] @ theta[d], 1e-300)).mean())
            assert sess.log_predictive(w, theta[d]) == lp
            total += lp * w.size
            tokens += w.size
        score = sess.score(test, theta=theta).log_predictive_per_token
        assert score == total / tokens

    def test_transform_alone_never_builds_the_float64_matrix(
        self, trained, model
    ):
        _, test = trained
        sess = InferenceSession(model, num_sweeps=6, burn_in=2)
        assert sess._p_star_t.dtype == np.float32
        theta = sess.transform(test, seed=0)
        sess.top_topics(test, theta=theta)
        assert sess._p_star_t64 is None
        sess.score(test, theta=theta)
        assert sess._p_star_t64.dtype == np.float64

    def test_log_predictive_validation(self, model):
        sess = InferenceSession(model, num_sweeps=6, burn_in=2)
        mix = np.full(model.num_topics, 1.0 / model.num_topics)
        with pytest.raises(ValueError, match="empty"):
            sess.log_predictive(np.array([], dtype=np.int64), mix)
        with pytest.raises(ValueError, match="length-K"):
            sess.log_predictive(np.array([0]), mix[:-1])
        with pytest.raises(ValueError, match="probability"):
            sess.log_predictive(np.array([0]), mix * 2)


class TestValidation:
    def test_rejects_bad_schedule(self, model):
        with pytest.raises(ValueError, match="exceed"):
            InferenceSession(model, num_sweeps=5, burn_in=5)
        sess = InferenceSession(model, num_sweeps=6, burn_in=2)
        with pytest.raises(ValueError, match="exceed"):
            sess.transform([np.array([0])], num_sweeps=2, burn_in=3)
        # per-call overrides go through the same validation as __init__
        with pytest.raises(ValueError, match="non-negative"):
            sess.transform([np.array([0])], burn_in=-1)

    def test_rejects_unknown_words(self, model):
        sess = InferenceSession(model, num_sweeps=6, burn_in=2)
        with pytest.raises(ValueError, match="vocabulary"):
            sess.transform([np.array([model.num_words])])

    def test_rejects_non_model(self):
        with pytest.raises(TypeError, match="TopicModel"):
            InferenceSession(object())

    def test_document_completion_honours_session_schedule(self, trained, model):
        """A passed session's num_sweeps/burn_in are used, not the 25/10
        defaults (explicit arguments still override)."""
        from repro.analysis.heldout import document_completion

        _, test = trained
        via_session = document_completion(
            InferenceSession(model, num_sweeps=12, burn_in=4), test
        )
        explicit = document_completion(model, test, num_sweeps=12, burn_in=4)
        default = document_completion(model, test)  # 25/10
        assert (via_session.log_predictive_per_token
                == explicit.log_predictive_per_token)
        assert (via_session.log_predictive_per_token
                != default.log_predictive_per_token)

    def test_heldout_document_completion_on_topic_model(self, trained, model):
        """document_completion accepts the artifact directly and scores
        the held-out halves under the oracle's mixtures, bit for bit."""
        from repro.analysis.heldout import document_completion, split_documents

        _, test = trained
        got = document_completion(model, test, num_sweeps=8, burn_in=3, seed=6)
        observed, heldout = split_documents(test, seed=6)
        mixtures = fold_in(model, observed, num_sweeps=8, burn_in=3, seed=7)
        p_star_t = model.word_given_topic().T
        lp = [np.log(p_star_t[h] @ m).mean() * h.size
              for m, h in zip(mixtures, heldout)]
        tokens = sum(h.size for h in heldout)
        assert got.log_predictive_per_token == sum(lp) / tokens
        assert got.num_documents == len(heldout)
        assert got.num_scored_tokens == tokens


def test_large_doc_exceeding_batch_layout():
    """Documents of very different lengths batch correctly (ragged tails)."""
    phi = np.ones((4, 30), dtype=np.int64) * 2
    model = TopicModel(phi, phi.sum(axis=1), 0.5, 0.1)
    rng = np.random.default_rng(0)
    docs = [rng.integers(0, 30, size=n) for n in (1, 200, 3, 57, 9)]
    corpus = Corpus.from_token_lists([d.tolist() for d in docs], num_words=30)
    ref = fold_in(model, corpus, num_sweeps=6, burn_in=2, seed=3)
    got = InferenceSession(model, num_sweeps=6, burn_in=2, batch_docs=2).transform(
        corpus, seed=3
    )
    assert np.array_equal(ref, got)


@pytest.mark.usefixtures("pool_routed")
class TestParallelInference:
    """Process-parallel serving: frozen phi, zero sync, identical bits."""

    @pytest.mark.parametrize("num_workers", [2, 3])
    def test_bit_identical_for_any_worker_count(
        self, trained, model, num_workers
    ):
        _, test = trained
        ref = InferenceSession(model, num_sweeps=7, burn_in=2).transform(
            test, seed=3
        )
        with InferenceSession(
            model, num_sweeps=7, burn_in=2, num_workers=num_workers,
            batch_docs=8,
        ) as session:
            got = session.transform(test, seed=3)
        assert np.array_equal(ref, got)

    def test_score_and_top_topics_ride_the_pool(self, trained, model):
        _, test = trained
        serial = InferenceSession(model, num_sweeps=7, burn_in=2)
        with InferenceSession(
            model, num_sweeps=7, burn_in=2, num_workers=2
        ) as par:
            assert (
                par.score(test, seed=3).log_predictive_per_token
                == serial.score(test, seed=3).log_predictive_per_token
            )
            ids_a, w_a = serial.top_topics(test, n=3, seed=3)
            ids_b, w_b = par.top_topics(test, n=3, seed=3)
        assert np.array_equal(ids_a, ids_b)
        assert np.array_equal(w_a, w_b)

    def test_close_is_idempotent_and_restartable(self, trained, model):
        _, test = trained
        session = InferenceSession(
            model, num_sweeps=7, burn_in=2, num_workers=2
        )
        a = session.transform(test, seed=3)
        session.close()
        session.close()  # idempotent
        b = session.transform(test, seed=3)  # rebuilds the pool
        session.close()
        assert np.array_equal(a, b)

    def test_no_leaked_segments(self, trained, model):
        import glob

        _, test = trained
        before = set(glob.glob("/dev/shm/psm_*"))
        session = InferenceSession(
            model, num_sweeps=6, burn_in=1, num_workers=2
        )
        session.transform(test, seed=1)
        session.close()
        assert set(glob.glob("/dev/shm/psm_*")) <= before

    def test_empty_and_tiny_inputs(self, model):
        with InferenceSession(
            model, num_sweeps=6, burn_in=1, num_workers=2
        ) as session:
            theta = session.transform(
                [np.array([], dtype=np.int64), np.array([1, 2, 3]),
                 np.array([4])],
                seed=0,
            )
            assert theta.shape == (3, model.num_topics)
            assert np.allclose(theta[0], 1.0 / model.num_topics)

    def test_describe_reports_pool(self, model):
        with InferenceSession(
            model, num_sweeps=6, burn_in=1, num_workers=2
        ) as session:
            desc = session.describe()
            assert desc["num_workers"] == 2
            assert desc["pool"] is None  # lazy: no transform yet
            session.transform([np.array([0, 1]), np.array([2])], seed=0)
            assert session.describe()["pool"]["started"] is True

    def test_arena_holds_the_one_float32_matrix(self, model):
        with InferenceSession(
            model, num_sweeps=6, burn_in=1, num_workers=2
        ) as session:
            session.transform([np.array([0, 1]), np.array([2])], seed=0)
            view = session._pool._arena.view("pstar")
            assert view.dtype == np.float32
            assert np.array_equal(view, session._p_star_t)
            del view  # closing unmaps the arena
            arena_bytes = session.describe()["pool"]["arena_bytes"]
            assert arena_bytes == model.num_words * model.num_topics * 4

    def test_rejects_bad_worker_count(self, model):
        with pytest.raises(ValueError, match="num_workers"):
            InferenceSession(model, num_workers=0)

    def test_document_completion_accepts_parallel_session(
        self, trained, model
    ):
        from repro.analysis.heldout import document_completion

        _, test = trained
        ref = document_completion(model, test, num_sweeps=7, burn_in=2, seed=4)
        with InferenceSession(
            model, num_sweeps=7, burn_in=2, num_workers=2
        ) as session:
            got = document_completion(session, test, seed=4)
        assert ref == got

    def test_small_request_keeps_every_worker_busy(self, trained, model):
        """A request smaller than batch_docs * workers is split into
        ceil(docs / workers)-sized batches — parallelism without any
        change to the per-document draws."""
        _, test = trained
        ref = InferenceSession(model, num_sweeps=7, burn_in=2).transform(
            test, seed=3
        )
        # default batch_docs (256) exceeds the 40-doc request
        with InferenceSession(
            model, num_sweeps=7, burn_in=2, num_workers=4
        ) as session:
            got = session.transform(test, seed=3)
        assert np.array_equal(ref, got)


class TestRouting:
    """Calls below two shares of ``_MIN_SHARE_DOCS`` fold in-process."""

    @staticmethod
    def _docs(test, n):
        docs = _as_doc_arrays(test)
        return (docs * (-(-n // len(docs))))[:n]

    def test_below_threshold_leaves_pool_unstarted(self, trained, model):
        _, test = trained
        with InferenceSession(
            model, num_sweeps=6, burn_in=1, num_workers=2
        ) as session:
            session.transform(self._docs(test, 2 * _MIN_SHARE_DOCS - 1))
            desc = session.describe()
        assert desc["pool"] is None
        assert desc["routed"] == {"in_process": 1, "pool": 0}

    def test_at_threshold_starts_pool(self, trained, model):
        _, test = trained
        with InferenceSession(
            model, num_sweeps=6, burn_in=1, num_workers=2
        ) as session:
            session.transform(self._docs(test, 2 * _MIN_SHARE_DOCS))
            desc = session.describe()
        assert desc["pool"]["started"] is True
        assert desc["routed"] == {"in_process": 0, "pool": 1}
        assert len(desc["pool"]["worker_peak_rss_mb"]) == 2

    def test_both_sides_of_threshold_bit_identical(self, trained, model):
        _, test = trained
        docs = self._docs(test, 2 * _MIN_SHARE_DOCS)
        with InferenceSession(
            model, num_sweeps=6, burn_in=1, num_workers=2
        ) as session:
            wide = session.transform(docs, seed=5)
            narrow = session.transform(docs[:-1], seed=5)
            assert session.describe()["routed"] == {
                "in_process": 1, "pool": 1,
            }
        assert np.array_equal(wide[:-1], narrow)
        ref = InferenceSession(model, num_sweeps=6, burn_in=1).transform(
            docs, seed=5
        )
        assert np.array_equal(wide, ref)

    @pytest.mark.usefixtures("pool_routed")
    @pytest.mark.parametrize("num_docs", [7, 40])
    def test_ragged_rounds_bit_identical(self, trained, model, num_docs):
        """Rounds of 3 batches of 2 documents; the last round is short."""
        _, test = trained
        docs = self._docs(test, num_docs)
        ref = InferenceSession(model, num_sweeps=6, burn_in=1).transform(
            docs, seed=2
        )
        with InferenceSession(
            model, num_sweeps=6, burn_in=1, num_workers=3, batch_docs=2
        ) as session:
            got = session.transform(docs, seed=2)
            assert session.describe()["routed"]["pool"] == 1
        assert np.array_equal(ref, got)

    def test_one_worker_never_starts_a_pool(self, trained, model):
        _, test = trained
        session = InferenceSession(model, num_sweeps=6, burn_in=1)
        session.transform(self._docs(test, 4 * _MIN_SHARE_DOCS))
        assert session.describe()["pool"] is None


class TestTransformMany:
    """Coalesced multi-request inference: the serving tier's contract."""

    def _docs(self, test, lo, hi):
        return [
            test.word_ids[test.doc_offsets[d]: test.doc_offsets[d + 1]]
            .astype(np.int64)
            for d in range(lo, hi)
        ]

    def test_each_request_bit_identical_to_standalone(self, trained, model):
        _, test = trained
        session = InferenceSession(model, num_sweeps=7, burn_in=2)
        requests = [
            (self._docs(test, 0, 5), 11),
            (self._docs(test, 5, 6), 42),
            (self._docs(test, 6, 14), 11),  # same seed as request 0
            (self._docs(test, 14, 17), 0),
        ]
        coalesced = session.transform_many(requests)
        for (docs, seed), theta in zip(requests, coalesced):
            assert np.array_equal(
                theta, session.transform(docs, seed=seed)
            ), "coalescing changed a request's draws"

    @pytest.mark.usefixtures("pool_routed")
    def test_pooled_matches_in_process(self, trained, model):
        _, test = trained
        requests = [
            (self._docs(test, 0, 6), 3),
            (self._docs(test, 6, 9), 9),
            (self._docs(test, 9, 20), 3),
        ]
        serial = InferenceSession(
            model, num_sweeps=7, burn_in=2
        ).transform_many(requests)
        with InferenceSession(
            model, num_sweeps=7, burn_in=2, num_workers=2, batch_docs=4
        ) as pooled:
            par = pooled.transform_many(requests)
        for a, b in zip(serial, par):
            assert np.array_equal(a, b)

    def test_empty_documents_and_requests(self, model):
        session = InferenceSession(model, num_sweeps=5, burn_in=1)
        assert session.transform_many([]) == []
        [theta] = session.transform_many(
            [([np.array([], dtype=np.int64), np.array([1, 2])], 0)]
        )
        assert theta.shape == (2, model.num_topics)
        assert np.allclose(theta[0], 1.0 / model.num_topics)

    def test_schedule_validation(self, trained, model):
        _, test = trained
        session = InferenceSession(model, num_sweeps=7, burn_in=2)
        with pytest.raises(ValueError, match="exceed"):
            session.transform_many(
                [(self._docs(test, 0, 1), 0)], num_sweeps=2, burn_in=5
            )


@pytest.mark.usefixtures("pool_routed")
class TestInferencePoolFailure:
    """Crash injection through the serving pool (PR-5 idiom extended)."""

    def test_worker_exception_surfaces_no_leak_restartable(
        self, trained, model, monkeypatch
    ):
        import glob

        from repro.parallel.shm import pick_context

        if pick_context().get_start_method() != "fork":
            pytest.skip("fault injection needs fork inheritance")
        _, test = trained
        before = set(glob.glob("/dev/shm/psm_*"))

        def boom(self, *args, **kwargs):
            raise RuntimeError("injected inference failure")

        monkeypatch.setattr(InferenceSession, "_fold_in_batch", boom)
        session = InferenceSession(
            model, num_sweeps=6, burn_in=1, num_workers=2
        )
        with pytest.raises(RuntimeError, match="injected inference failure"):
            session.transform(test, seed=1)
        # the failed call tore the pool down and unlinked its arena
        assert set(glob.glob("/dev/shm/psm_*")) <= before
        monkeypatch.undo()
        got = session.transform(test, seed=1)  # rebuilds a clean pool
        session.close()
        ref = InferenceSession(model, num_sweeps=6, burn_in=1).transform(
            test, seed=1
        )
        assert np.array_equal(ref, got)
        assert set(glob.glob("/dev/shm/psm_*")) <= before

    def test_worker_death_between_requests_is_named(self, trained, model):
        from repro.parallel.pool import WorkerDied
        from repro.parallel.shm import pick_context

        if pick_context().get_start_method() != "fork":
            pytest.skip("process kill needs fork-cheap workers")
        _, test = trained
        session = InferenceSession(
            model, num_sweeps=6, burn_in=1, num_workers=2
        )
        a = session.transform(test, seed=2)
        victim = session._pool._procs[0]
        victim.terminate()
        victim.join(timeout=5.0)
        with pytest.raises(WorkerDied, match="inference worker"):
            session.transform(test, seed=2)
        b = session.transform(test, seed=2)  # fresh pool, same bits
        session.close()
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# The served contract, pinned independently of the oracle.

_G_K, _G_V = 16, 50
#: Ragged on purpose: length-1 docs, a repeated length, an empty doc and
#: one long doc.
_G_LENGTHS = (1, 5, 5, 5, 0, 1, 300, 17, 3, 40, 40, 2)
#: Per K: one theta entry of the long document (hex), then sha256 of the
#: float64 theta bytes of transform and of the three transform_many
#: blocks.  K=16 is one block of the two-level draw; K=40 is three, the
#: last one padded.  Both were recaptured when each document began to
#: draw its randomness a block of sweeps at a time (Gamma(alpha) rows,
#: exponentials and uniforms up front), which changed every stream's
#: consumption order.  Each chain was first checked against the exact
#: posterior (tests/test_exact_posterior.py).
_G_PINS = {
    16: (
        (0, "0x1.697da5f697da6p-4"),
        "faaf06bb2facacf962902f5c8dd684275a54a7fdf52ee8deab8d09fcd7b6b14a",
        (
            "45d5590c9cd9ebdd2bfdacaa8a83f59a9609671984b4991813de21866f97a6a5",
            "6c429a763a6312f92318d82d04fcdf7560f3c4eb5fdd11ddd6b5c9bdcc30f3b9",
            "13529287b04dfb2d67e4da164cf2863052366903b687e880063f7f6dce7a4748",
        ),
    ),
    40: (
        (39, "0x1.8f18f18f18f19p-8"),
        "c8caec2fe4d55d21402508f4d877a7c3d7b555d36329dc4801d4a421c674feef",
        (
            "b4479846747f877356ba3035911f1e49fe87c1add31165a695ae877c811233c1",
            "2c2206fdd2b1ed13fdd5eb06256c7d28ab95fedda00c7cc80909daa115a98def",
            "37eaed1781c57db1cd94970b93d9ae8660741203c9764122f4257f261c36e216",
        ),
    ),
}


def _golden_model(k: int = _G_K) -> TopicModel:
    kk, vv = np.meshgrid(np.arange(k), np.arange(_G_V), indexing="ij")
    phi = ((kk * 7 + vv * 13 + kk * vv) % 11).astype(np.int64)
    phi[:, ::5] *= 3
    return TopicModel(phi, phi.sum(axis=1), 0.3, 0.05)


def _golden_docs() -> list[np.ndarray]:
    return [
        (np.arange(n, dtype=np.int64) * (2 * i + 3) + i * i) % _G_V
        for i, n in enumerate(_G_LENGTHS)
    ]


def _sha(theta: np.ndarray) -> str:
    import hashlib

    assert theta.dtype == np.float64
    return hashlib.sha256(np.ascontiguousarray(theta).tobytes()).hexdigest()


class TestServedGolden:
    @pytest.mark.parametrize("batch_docs", [1, None])
    def test_transform_pinned(self, batch_docs):
        kw = {} if batch_docs is None else {"batch_docs": batch_docs}
        for k, ((topic, value), digest, _) in _G_PINS.items():
            session = InferenceSession(
                _golden_model(k), num_sweeps=8, burn_in=3, **kw
            )
            theta = session.transform(_golden_docs(), seed=7)
            assert theta[6, topic].hex() == value, k
            assert _sha(theta) == digest, k

    @pytest.mark.parametrize("batch_docs", [1, None])
    def test_transform_many_pinned(self, batch_docs):
        kw = {} if batch_docs is None else {"batch_docs": batch_docs}
        docs = _golden_docs()
        for k, (_, _, digests) in _G_PINS.items():
            session = InferenceSession(
                _golden_model(k), num_sweeps=8, burn_in=3, **kw
            )
            blocks = session.transform_many(
                [(docs[:5], 11), (docs[5:], 2), (docs[3:9], 11)]
            )
            assert tuple(_sha(b) for b in blocks) == digests, k


# ---------------------------------------------------------------------------
# Property sweep: batched fold-in against the sequential oracle.

_ragged_lengths = st.one_of(
    st.lists(st.integers(0, 9), min_size=1, max_size=7),
    st.tuples(st.integers(1, 8), st.integers(1, 6)).map(
        lambda t: [t[0]] * t[1]
    ),
    st.lists(st.integers(1, 12), min_size=1, max_size=6, unique=True).map(
        lambda ls: sorted(ls, reverse=True)
    ),
)


def _random_case(k: int, lengths: list[int], seed: int):
    rng = np.random.default_rng(seed)
    v = 7
    phi = rng.integers(0, 6, size=(k, v)).astype(np.int64)
    docs = [rng.integers(0, v, size=n).tolist() for n in lengths]
    corpus = Corpus.from_token_lists(docs, num_words=v)
    return TopicModel(phi, phi.sum(axis=1), 0.2, 0.1), corpus


class TestOracleProperties:
    @settings(max_examples=60)
    @given(
        lengths=_ragged_lengths,
        k=st.sampled_from([1, 2, 3, 16, 17, 33, 40]),
        batch_docs=st.sampled_from([1, 2, 256]),
        seed=st.integers(0, 2**16),
    )
    def test_bitwise_equal_to_oracle(self, lengths, k, batch_docs, seed):
        model, corpus = _random_case(k, lengths, seed)
        ref = fold_in(model, corpus, num_sweeps=4, burn_in=1, seed=seed)
        session = InferenceSession(
            model, num_sweeps=4, burn_in=1, batch_docs=batch_docs
        )
        got = session.transform(corpus, seed=seed)
        assert np.array_equal(ref, got)
        # coalesced with a second request, the first block keeps its bits
        first, _ = session.transform_many(
            [(corpus, seed), (corpus, seed + 1)]
        )
        assert np.array_equal(first, got)

    @pytest.mark.usefixtures("pool_routed")
    def test_pooled_bitwise_equal_to_oracle(self):
        model, corpus = _random_case(3, [9, 1, 0, 4, 4, 12, 2], 5)
        ref = fold_in(model, corpus, num_sweeps=4, burn_in=1, seed=5)
        with InferenceSession(
            model, num_sweeps=4, burn_in=1, num_workers=2, batch_docs=2
        ) as pooled:
            got = pooled.transform(corpus, seed=5)
        assert np.array_equal(ref, got)


class TestFoldInBatchEdges:
    def test_word_id_past_vocabulary_raises(self):
        """The worker entry point skips the vocabulary check; the p*
        gather itself must stay bounds-checked."""
        model = _golden_model()
        session = InferenceSession(model, num_sweeps=3, burn_in=1)
        docs = [np.array([0, 3, _G_V], dtype=np.int64),
                np.array([1, 2], dtype=np.int64)]
        seeds = [np.random.SeedSequence(0, spawn_key=(i,)) for i in range(2)]
        with pytest.raises(IndexError):
            session._fold_in_batch(docs, seeds, 3, 1)

    @pytest.mark.parametrize("tile", [1, 16, 100, 1000])
    def test_tiling_never_changes_a_draw(self, tile):
        """One tile with the p* gather hoisted, or many small ones, with
        one block of topics (K=16) or three (K=40)."""
        docs = _golden_docs()
        for k in (_G_K, 40):
            session = InferenceSession(_golden_model(k), num_sweeps=4, burn_in=1)
            base = session.transform(docs, seed=3)
            with mock.patch.object(inference, "_TILE", tile):
                assert np.array_equal(session.transform(docs, seed=3), base), k

    def test_warm_transform_reuses_every_buffer(self):
        docs = _golden_docs()
        for k in (_G_K, 40):
            session = InferenceSession(_golden_model(k), num_sweeps=4, burn_in=1)
            session.transform(docs, seed=0)
            warm = session.describe()["workspace"]
            buffers = dict(session._ws._pool)
            session.transform(docs, seed=1)
            again = session.describe()["workspace"]
            assert again["misses"] == warm["misses"]
            assert again["hits"] > warm["hits"]
            assert {key: v for key, v in again.items() if key != "hits"} == {
                key: v for key, v in warm.items() if key != "hits"
            }
            # The up-front randomness lands in the same arrays again.
            roles = {role for role, _ in buffers}
            assert {"infer.gammas", "infer.exps", "infer.uniforms"} <= roles
            assert all(session._ws._pool[key] is buf for key, buf in buffers.items())

    def test_long_schedule_keeps_scratch_to_one_sweep_block(self):
        """Scratch grows by ``_SWEEP_BLOCK * (K + 2 n) * 8`` bytes per
        document at most, however many sweeps a call runs."""
        docs = _golden_docs()
        tokens = sum(d.size for d in docs)
        per_sweep = (sum(d.size > 0 for d in docs) * _G_K + 2 * tokens) * 8

        def nbytes(sweeps: int) -> int:
            session = InferenceSession(
                _golden_model(), num_sweeps=sweeps, burn_in=1
            )
            session.transform(docs, seed=0)
            return session.describe()["workspace"]["nbytes"]

        assert nbytes(1000) - nbytes(2) <= (_SWEEP_BLOCK - 2) * per_sweep


# ---------------------------------------------------------------------------
# The tile draw against exact arithmetic (the single-draw form of the
# exact checks; tests/test_sampler.py::TestExactOracle does the same for
# the training kernel).

#: How close (relative to the row total) a target may sit to an exact
#: prefix sum and still have the draw pick the other side of it.  Along a
#: draw's path float32 rounds at most 2B + K/B times (block totals, block
#: prefix sums, the target, the residual, in-block prefix sums), 48 at
#: K=256, each by at most 2**-24 of the row total; 64 of them bound that.
_KNIFE_EDGE = 64 * 2.0**-24


def _draw_products(k: int, n: int, rng) -> np.ndarray:
    """Float32 token weights theta_d[k] * p*[k, w], formed as the tile
    forms them, with the awkward cases mixed in.

    Rows cycle through gamma draws at alpha = 1e-3 (most weights
    underflow to exactly 0.0, some rows keep one topic), at alpha = 0.5,
    and rows of tied weights (one value repeated, or equal blocks).
    """
    p_star = rng.dirichlet(np.full(k, 0.5), size=n) + 1e-3
    theta = rng.standard_gamma(np.full((n, k), 1e-3))
    theta[1::4] = rng.standard_gamma(np.full((n, k), 0.5))[1::4]
    prod = theta.astype(np.float32) * p_star.astype(np.float32)
    prod[2::4] = 0.25
    prod[3::4] = np.resize(np.arange(1, _BLOCK + 1) / 8, k)
    dead = ~prod.any(axis=1)
    prod[dead, rng.integers(0, k, size=int(dead.sum()))] = 1.0
    return prod


def _exact_inverse_cdf(row: np.ndarray, u: float) -> tuple[int, float]:
    """First topic whose exact prefix sum exceeds ``u * total``, and the
    target's distance from the nearest prefix, relative to the total."""
    prefix = list(itertools.accumulate(Fraction(float(p)) for p in row))
    target = Fraction(float(u)) * prefix[-1]
    topic = next(i for i, c in enumerate(prefix) if c > target)
    return topic, float(min(abs(target - c) for c in prefix) / prefix[-1])


class TestBlockDrawExact:
    @pytest.mark.parametrize("k", [2, 3, 15, 16, 17, 33, 256])
    def test_matches_exact_inverse_cdf(self, k):
        n = 512 if k < 256 else 160
        rng = np.random.default_rng(k)
        prod = _draw_products(k, n, rng)
        u = rng.random(n)  # uniforms stay float64
        u[:3] = [0.0, 0.5, 1.0 - 2.0**-53]  # both ends of [0, 1)
        draw = inference._BlockDraw(Workspace(), n, k)
        draw.prod[:, :k] = prod
        topic = np.empty(n, dtype=np.intp)
        draw(n, u, topic)
        assert np.all(topic < k)
        assert np.all(prod[np.arange(n), topic] > 0.0)  # never zero mass
        checked = 0
        for i in range(n):
            exact, margin = _exact_inverse_cdf(prod[i], u[i])
            if margin > _KNIFE_EDGE:
                assert topic[i] == exact, f"token {i}: {topic[i]} != {exact}"
                checked += 1
        assert checked > 0.7 * n
        assert np.any(prod == 0.0)

    @pytest.mark.parametrize("weights", [
        # a float32-subnormal total: x = u * total rounds to it
        (3 * 2.0**-149, 0.0),
        # x - (mass before the block) rounds up to the block's total
        # (found by a search over random float32 pairs)
        (0.3609714210033417, 0.5769076347351074),
    ])
    def test_rounding_never_reaches_a_zero_mass_tail(self, weights):
        """Both edges would count past the last topic of mass into the
        zero tail (here padding) without the clamps."""
        k = _BLOCK + 1
        prod = np.zeros((1, k), dtype=np.float32)
        prod[0, 0], prod[0, _BLOCK] = weights
        u = np.array([1.0 - 2.0**-53])
        total = prod[0, 0] + prod[0, _BLOCK]
        # In float32 the target u * total rounds to any total at this u;
        # the first clamp then leaves a residual that can round up again.
        x = np.float32(u[0] * np.float64(total))
        rest = min(x, np.nextafter(total, np.float32(0))) - prod[0, 0]
        assert x == total
        assert weights[1] == 0.0 or rest == prod[0, _BLOCK]
        draw = inference._BlockDraw(Workspace(), 1, k)
        draw.prod[:, :k] = prod
        topic = np.empty(1, dtype=np.intp)
        draw(1, u, topic)
        want = 0 if weights[1] == 0.0 else _BLOCK
        assert topic[0] == want == two_level_draw(prod, u)[0]

    def test_partial_tile_and_stale_scratch(self):
        """Rows past ``n`` and leftovers of a wider call change nothing."""
        k, n = 40, 64
        rng = np.random.default_rng(1)
        prod, u = _draw_products(k, n, rng), rng.random(n)
        ws = Workspace()
        wide = inference._BlockDraw(ws, 2 * n, k)
        wide.prod[:, :k] = rng.random((2 * n, k))
        wide(2 * n, rng.random(2 * n), np.empty(2 * n, dtype=np.intp))
        draw = inference._BlockDraw(ws, 2 * n, k)
        draw.prod[:n, :k] = prod
        got = np.empty(n, dtype=np.intp)
        draw(n, u, got)
        assert np.array_equal(got, two_level_draw(prod, u))


# ---------------------------------------------------------------------------
# Edge shapes: tiny alpha (gamma draws underflow to 0.0), K=1, K larger
# than the token count, length-1, empty and zero documents.

_edge_requests = st.lists(
    st.lists(st.integers(0, 6), max_size=5), max_size=3
)


class TestEdgeShapes:
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.sampled_from([1, 2, 3, 50]),
        alpha=st.sampled_from([1e-3, 0.1, 2.0]),
        requests=_edge_requests,
        batch_docs=st.sampled_from([1, 256]),
        seed=st.integers(0, 2**16),
    )
    def test_rows_are_probability_vectors(
        self, k, alpha, requests, batch_docs, seed
    ):
        rng = np.random.default_rng(seed)
        v = 5
        phi = rng.integers(0, 4, size=(k, v)).astype(np.int64)
        model = TopicModel(phi, phi.sum(axis=1), alpha, 0.05)
        session = InferenceSession(
            model, num_sweeps=4, burn_in=1, batch_docs=batch_docs
        )
        reqs = [
            ([rng.integers(0, v, size=n) for n in lengths], seed + i)
            for i, lengths in enumerate(requests)
        ]
        blocks = session.transform_many(reqs)
        for (docs, s), block in zip(reqs, blocks):
            theta = session.transform(docs, seed=s)
            assert theta.shape == (len(docs), k)
            assert np.all(np.isfinite(theta)) and np.all(theta >= 0)
            assert np.allclose(theta.sum(axis=1), 1.0)
            assert np.array_equal(block, theta)
        oov = [rng.integers(0, v, size=2), np.array([0, v])]
        with pytest.raises(ValueError, match="vocabulary"):
            session.transform(oov, seed=seed)
        streams = [np.random.SeedSequence(seed, spawn_key=(i,)) for i in range(2)]
        with pytest.raises(IndexError):
            session._fold_in_batch(oov, streams, 4, 1)
