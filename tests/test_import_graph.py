"""The import graph: what each entry point loads, and the lazy namespaces.

The serving process must start without scipy and the training stack, so
``repro serve`` pays only for numpy, :mod:`repro.model`,
:mod:`repro.serving` and the arena plumbing.  Training modules import
their heavy dependencies at module top, so nothing is imported inside a
timed training iteration.  Each import-graph case runs in a fresh
interpreter: the test process itself has long since imported everything.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules the serving process and the CLI's parser must never load.
TRAINING_ONLY = (
    "scipy",
    "repro.api",
    "repro.core.trainer",
    "repro.core.sampler",
    "repro.core.likelihood",
    "repro.parallel.engine",
    "repro.parallel.worker",
)

#: Packages whose ``__init__`` resolves its exports lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.parallel",
    "repro.perf",
)


def _loaded_after(code: str, modules) -> list[str]:
    """Run ``code`` in a fresh interpreter; which of ``modules`` it loaded."""
    probe = (
        f"{code}\n"
        "import sys\n"
        f"print(','.join(m for m in {tuple(modules)!r} if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    return [m for m in last.split(",") if m]


class TestServingStaysLean:
    def test_serving_and_model_imports(self):
        assert _loaded_after("import repro.serving, repro.model", TRAINING_ONLY) == []

    def test_cli_parser_then_serving(self):
        code = (
            "import repro.cli\n"
            "repro.cli.build_parser()\n"
            "import repro.serving\n"
        )
        assert _loaded_after(code, TRAINING_ONLY) == []


class TestTrainingImportsUpFront:
    """scipy is loaded by trainer construction, never by the first
    likelihood-bearing iteration of ``fit``."""

    @pytest.mark.parametrize(
        "algorithm, options",
        [
            ("culda", "execution='serial'"),
            ("culda", "execution='process', num_workers=1"),
            ("plain_cgs", ""),
        ],
        ids=["culda-serial", "culda-process", "plain_cgs"],
    )
    def test_scipy_loaded_before_fit(self, algorithm, options):
        code = (
            "import repro\n"
            "from repro.corpus.synthetic import generate_synthetic_corpus, small_spec\n"
            "corpus = generate_synthetic_corpus(small_spec(num_docs=8, num_words=20,"
            " mean_doc_len=6), seed=0)\n"
            f"trainer = repro.create_trainer({algorithm!r}, corpus, topics=4, {options})\n"
            "if hasattr(trainer, 'close'):\n"
            "    trainer.close()\n"
        )
        assert _loaded_after(code, ("scipy.special",)) == ["scipy.special"]


class TestLazyNamespaces:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_export_resolves(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            for name in module.__all__:
                value = getattr(module, name)
                scope: dict = {}
                exec(f"from {package} import {name}", scope)
                assert scope[name] is value, f"{package}.{name}"
                assert name in listed, f"{package}.{name} missing from dir()"

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_name_names_the_module(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=rf"'{package}'.*'no_such_name'"):
            _ = module.no_such_name

    def test_deprecated_alias_warns_once_across_access_styles(self):
        repro._warned_aliases.discard("CuLdaTrainer")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            from repro import CuLdaTrainer as first
            second = repro.CuLdaTrainer
        from repro.core.trainer import CuLdaTrainer

        assert first is CuLdaTrainer and second is CuLdaTrainer
        deprecations = [w for w in caught if w.category is DeprecationWarning]
        assert len(deprecations) == 1
