"""Algorithm registry: lookup, validation, registration."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.api import (
    LdaTrainer,
    algorithm_names,
    create_trainer,
    get_algorithm,
    register_algorithm,
)
from repro.api import registry
from repro.api.registry import COMMON_OPTIONS
from repro.corpus.document import Corpus
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec

API_DOC = Path(__file__).resolve().parents[1] / "docs" / "API.md"

EXPECTED_BUILTINS = {"culda", "ldastar", "plain_cgs", "saberlda", "warplda"}


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_corpus(
        small_spec(num_docs=20, num_words=40, mean_doc_len=10, num_topics=4),
        seed=9,
    )


class TestLookup:
    def test_builtins_are_exactly_the_five_systems(self):
        assert set(algorithm_names()) == EXPECTED_BUILTINS

    def test_names_sorted(self):
        names = algorithm_names()
        assert names == sorted(names)

    def test_lookup_case_insensitive(self):
        assert get_algorithm("CuLDA").name == "culda"

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="unknown algorithm 'nope'"):
            get_algorithm("nope")
        with pytest.raises(ValueError, match="culda"):
            get_algorithm("nope")

    def test_docs_registry_table_lists_each_option(self):
        """docs/API.md's registry table names exactly each algorithm's
        own options, in registration order."""
        rows = {}
        for line in API_DOC.read_text(encoding="utf-8").splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 3 and cells[0].strip("`") in EXPECTED_BUILTINS:
                rows[cells[0].strip("`")] = re.findall(r"`(\w+)`", cells[2])
        assert rows == {
            name: list(get_algorithm(name).options) for name in EXPECTED_BUILTINS
        }

    def test_specs_have_summaries_and_options(self):
        for name in EXPECTED_BUILTINS:
            spec = get_algorithm(name)
            assert spec.summary
            merged = spec.all_options()
            assert set(COMMON_OPTIONS) <= set(merged)


class TestCreateTrainer:
    def test_returns_protocol_instance(self, corpus):
        trainer = create_trainer("plain_cgs", corpus, topics=6)
        assert isinstance(trainer, LdaTrainer)
        assert trainer.name == "plain_cgs"

    @pytest.mark.parametrize("name", ["lightlda", "sparselda"])
    def test_retired_baselines_are_unknown(self, corpus, name):
        message = (
            f"unknown algorithm '{name}'; registered: "
            "culda, ldastar, plain_cgs, saberlda, warplda"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            create_trainer(name, corpus, topics=6)

    @pytest.mark.parametrize("name", algorithm_names())
    def test_one_topic_is_rejected(self, corpus, name):
        with pytest.raises(
            ValueError, match=r"^num_topics must be >= 2, got 1$"
        ):
            create_trainer(name, corpus, topics=1)

    def test_unknown_kwarg_lists_accepted(self, corpus):
        with pytest.raises(ValueError, match="does not accept"):
            create_trainer("plain_cgs", corpus, topics=6, gpus=4)
        with pytest.raises(ValueError, match="topics"):
            create_trainer("plain_cgs", corpus, topics=6, bogus=1)

    def test_common_options_normalized(self, corpus):
        """The same keywords configure structurally different trainers."""
        for name in ("culda", "warplda", "plain_cgs"):
            trainer = create_trainer(
                name, corpus, topics=6, alpha=0.4, beta=0.02, seed=3
            )
            native = trainer.describe()["native"]
            assert native["num_topics"] == 6
            assert native["alpha"] == pytest.approx(0.4)
            assert native["beta"] == pytest.approx(0.02)

    def test_culda_platform_by_name(self, corpus):
        from repro.gpusim.platform import PASCAL_PLATFORM

        trainer = create_trainer("culda", corpus, topics=6, platform="Pascal")
        assert trainer.inner.spec is PASCAL_PLATFORM.gpu

    def test_bad_platform_name(self, corpus):
        with pytest.raises(KeyError, match="unknown platform"):
            create_trainer("culda", corpus, topics=6, platform="turing")


    @pytest.mark.parametrize("algo", algorithm_names())
    def test_zero_token_corpus_is_a_typed_error(self, algo):
        empty = Corpus.from_token_lists([[], []], num_words=3)
        with pytest.raises(ValueError, match="no tokens"):
            create_trainer(algo, empty, topics=2)

    def test_ldastar_default_workers_fit_a_small_corpus(self):
        small = Corpus.from_token_lists([[0, 1], [2], [1, 1, 0]], num_words=3)
        trainer = create_trainer("ldastar", small, topics=2)
        assert trainer._options["workers"] == 3
        assert len(trainer.partial_fit(2)) == 2

    def test_ldastar_explicit_workers_above_documents_raise(self):
        small = Corpus.from_token_lists([[0, 1], [2], [1, 1, 0]], num_words=3)
        with pytest.raises(ValueError, match="cannot make 5 chunks"):
            create_trainer("ldastar", small, topics=2, workers=5)


@pytest.fixture
def scratch_registry(monkeypatch):
    """Registrations a test makes vanish with it: it registers into a
    copy of the registry (built-ins loaded) that is dropped afterwards."""
    algorithm_names()
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))


@pytest.mark.usefixtures("scratch_registry")
class TestRegistration:
    def test_register_and_unregister(self, corpus):
        """Registered, the name constructs; ``scratch_registry`` drops it."""
        calls = []

        def factory(c, topics=4, alpha=None, beta=None, seed=0):
            calls.append(topics)
            return create_trainer("plain_cgs", c, topics=topics)

        register_algorithm("custom_test_algo", factory, summary="test-only")
        assert "custom_test_algo" in algorithm_names()
        trainer = create_trainer("custom_test_algo", corpus, topics=4)
        assert calls == [4]
        assert isinstance(trainer, LdaTrainer)

    def test_decorator_form(self):
        @register_algorithm("custom_deco_algo", summary="decorated")
        def factory(c, **kw):  # pragma: no cover - never constructed
            raise NotImplementedError

        assert get_algorithm("custom_deco_algo").summary == "decorated"

    def test_duplicate_rejected(self):
        def factory(c, **kw):  # pragma: no cover - never constructed
            raise NotImplementedError

        register_algorithm("custom_dup_algo", factory, summary="v1")
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm("custom_dup_algo", factory, summary="v2")
        assert get_algorithm("custom_dup_algo").summary == "v1"
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm("culda", factory)

    def test_invalid_names_rejected(self):
        def factory(c, **kw):  # pragma: no cover - never constructed
            raise NotImplementedError

        with pytest.raises(ValueError, match="invalid algorithm name"):
            register_algorithm("", factory)
        with pytest.raises(ValueError, match="invalid algorithm name"):
            register_algorithm("has space", factory)

    def test_factory_must_return_protocol(self, corpus):
        register_algorithm(
            "custom_bad_algo", lambda c, **kw: object(), summary="broken"
        )
        with pytest.raises(TypeError, match="not an LdaTrainer"):
            create_trainer("custom_bad_algo", corpus)
