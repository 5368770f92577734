"""Tests for the batched InferenceSession.

The load-bearing property is the determinism contract: batched
``transform`` must reproduce the sequential
:class:`~repro.core.inference.FoldInSampler` **bit-for-bit** per
document under the same seed, for any batch size.  Everything else
(top_topics, score, validation) builds on that.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import create_trainer
from repro.core.inference import FoldInSampler
from repro.corpus.document import Corpus
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec
from repro.model import InferenceSession, ScoreResult, TopicModel
from repro.model import inference
from repro.model.inference import _MIN_SHARE_DOCS, _as_doc_arrays
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
        trainer, test = trained
        seq = FoldInSampler.from_state(trainer.state)
        ref = seq.infer_corpus(test, num_sweeps=9, burn_in=3, seed=5)
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

    def test_from_fold_in_matches_sampler(self, trained):
        trainer, test = trained
        seq = FoldInSampler.from_state(trainer.state)
        ref = seq.infer_corpus(test, num_sweeps=8, burn_in=3, seed=2)
        got = InferenceSession.from_fold_in(
            seq, num_sweeps=8, burn_in=3
        ).transform(test, seed=2)
        assert np.array_equal(ref, got)

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

    def test_from_fold_in_validates_too(self, trained):
        """The compat constructor enforces the same invariants as __init__."""
        seq = FoldInSampler.from_state(trained[0].state)
        with pytest.raises(ValueError, match="exceed"):
            InferenceSession.from_fold_in(seq, num_sweeps=5, burn_in=5)
        with pytest.raises(ValueError, match="batch_docs"):
            InferenceSession.from_fold_in(seq, batch_docs=0)

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
        """document_completion accepts the artifact directly and agrees
        with the sampler path bit-for-bit."""
        from repro.analysis.heldout import document_completion

        trainer, test = trained
        via_model = document_completion(model, test, num_sweeps=8, burn_in=3)
        via_sampler = document_completion(
            FoldInSampler.from_state(trainer.state), test,
            num_sweeps=8, burn_in=3,
        )
        assert via_model.log_predictive_per_token == pytest.approx(
            via_sampler.log_predictive_per_token, rel=1e-12
        )
        assert via_model.num_documents == via_sampler.num_documents


def test_large_doc_exceeding_batch_layout():
    """Documents of very different lengths batch correctly (ragged tails)."""
    phi = np.ones((4, 30), dtype=np.int64) * 2
    model = TopicModel(phi, phi.sum(axis=1), 0.5, 0.1)
    rng = np.random.default_rng(0)
    docs = [rng.integers(0, 30, size=n) for n in (1, 200, 3, 57, 9)]
    corpus = Corpus.from_token_lists([d.tolist() for d in docs], num_words=30)
    seq = FoldInSampler(phi, phi.sum(axis=1), 0.5, 0.1)
    ref = seq.infer_corpus(corpus, num_sweeps=6, burn_in=2, seed=3)
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
# The served contract, pinned independently of FoldInSampler.

_G_K, _G_V = 16, 50
#: Ragged on purpose: length-1 docs, a repeated length, an empty doc and
#: one long doc.
_G_LENGTHS = (1, 5, 5, 5, 0, 1, 300, 17, 3, 40, 40, 2)
#: sha256 of the float64 theta bytes (transform, then transform_many
#: blocks), recaptured when fold-in became theta-explicit; that chain was
#: first checked against the exact posterior (tests/test_exact_posterior.py).
_G_TRANSFORM = (
    "69c761895745a70b332accbddbdf04d4c6fcb1043eacbe8174549a83a9c158c6"
)
_G_MANY = (
    "bd2fc5612303efa3f10c2f42d2f74a1f50a1cee152b068957ebbb7394376c04a",
    "2f28e08d347330b11e7410d47c2eaf4d23582cc60e01438508e6d9b0897215b7",
    "a5ce08385614c8d60a78b2d181183cc1038b2b55b23827b00b4637dd3ebb5849",
)


def _golden_model() -> TopicModel:
    kk, vv = np.meshgrid(np.arange(_G_K), np.arange(_G_V), indexing="ij")
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
        session = InferenceSession(
            _golden_model(), num_sweeps=8, burn_in=3, **kw
        )
        theta = session.transform(_golden_docs(), seed=7)
        assert theta[6, 0].hex() == "0x1.4e9d3a74e9d3ap-4"
        assert _sha(theta) == _G_TRANSFORM

    @pytest.mark.parametrize("batch_docs", [1, None])
    def test_transform_many_pinned(self, batch_docs):
        kw = {} if batch_docs is None else {"batch_docs": batch_docs}
        session = InferenceSession(
            _golden_model(), num_sweeps=8, burn_in=3, **kw
        )
        docs = _golden_docs()
        blocks = session.transform_many(
            [(docs[:5], 11), (docs[5:], 2), (docs[3:9], 11)]
        )
        assert tuple(_sha(b) for b in blocks) == _G_MANY


# ---------------------------------------------------------------------------
# Property sweep: batched fold-in against the sequential sampler.

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
    model = TopicModel(phi, phi.sum(axis=1), 0.2, 0.1)
    seq = FoldInSampler(phi, phi.sum(axis=1), 0.2, 0.1)
    return model, seq, corpus


class TestLockstepProperties:
    @settings(max_examples=60)
    @given(
        lengths=_ragged_lengths,
        k=st.sampled_from([1, 2, 3, 16]),
        batch_docs=st.sampled_from([1, 2, 256]),
        seed=st.integers(0, 2**16),
    )
    def test_bitwise_equal_to_fold_in_sampler(
        self, lengths, k, batch_docs, seed
    ):
        model, seq, corpus = _random_case(k, lengths, seed)
        ref = seq.infer_corpus(corpus, num_sweeps=4, burn_in=1, seed=seed)
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
    def test_pooled_bitwise_equal_to_fold_in_sampler(self):
        model, seq, corpus = _random_case(3, [9, 1, 0, 4, 4, 12, 2], 5)
        ref = seq.infer_corpus(corpus, num_sweeps=4, burn_in=1, seed=5)
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

    @pytest.mark.parametrize("tile", [1, 16, 100])
    def test_tiling_never_changes_a_draw(self, tile):
        """One tile with the p* gather hoisted, or many small ones."""
        session = InferenceSession(_golden_model(), num_sweeps=4, burn_in=1)
        docs = _golden_docs()
        base = session.transform(docs, seed=3)
        with mock.patch.object(inference, "_TILE", tile):
            assert np.array_equal(session.transform(docs, seed=3), base)

    def test_warm_transform_reuses_every_buffer(self):
        session = InferenceSession(_golden_model(), num_sweeps=4, burn_in=1)
        docs = _golden_docs()
        session.transform(docs, seed=0)
        warm = session.describe()["workspace"]
        session.transform(docs, seed=1)
        again = session.describe()["workspace"]
        assert again["misses"] == warm["misses"]
        assert again["hits"] > warm["hits"]
        assert {k: v for k, v in again.items() if k != "hits"} == {
            k: v for k, v in warm.items() if k != "hits"
        }


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
