"""The import graph: what each entry point loads, and the lazy namespaces.

The serving process must start without scipy and the training stack, so
``repro serve`` pays only for numpy, :mod:`repro.model`,
:mod:`repro.serving` and the arena plumbing.  Training modules import
their heavy dependencies at module top, so nothing is imported inside a
timed training iteration.  Each import-graph case runs in a fresh
interpreter: the test process itself has long since imported everything.
The last two cases parse the tree instead: every module must have an
importer outside ``tests/``, and every exported name a use there (in
code, not in a comment or docstring).
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Trees whose imports keep a ``repro`` module alive; ``tests/`` is not one.
PROGRAM_TREES = ("src", "benchmarks", "perfbench", "examples")

#: Modules that run as entry points instead of being imported.
ENTRY_POINTS = ("repro.__main__", "repro.cli")

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
    @pytest.mark.parametrize("package", (*LAZY_PACKAGES, "repro.baselines"))
    def test_every_export_resolves(self, package):
        """No listed name is missing or still a deprecation shim."""
        module = importlib.import_module(package)
        listed = dir(module)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
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


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def _imported_names(path: Path) -> set[str]:
    """Dotted names ``path`` imports, counting ``_EXPORTS`` table values."""
    package = _module_name(path).rpartition(".")[0] if SRC in path.parents else ""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            base = ".".join(filter(None, (base, node.module)))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
        elif (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "_EXPORTS" for t in node.targets)
            and isinstance(node.value, ast.Dict)
        ):
            names.update(v.value for v in node.value.values if isinstance(v, ast.Constant))
    return names


class TestNoTestOnlyModules:
    def test_every_module_is_imported_outside_the_tests(self):
        """A module only ``tests/`` imports is dead weight: delete it, or
        move it into ``tests/`` if it is a reference the tests compare to."""
        root = SRC.parent
        imported: set[str] = set()
        for tree in PROGRAM_TREES:
            for path in (root / tree).rglob("*.py"):
                imported |= _imported_names(path)
        modules = {
            _module_name(path)
            for path in (SRC / "repro").rglob("*.py")
            if path.stem != "__init__"
        }
        assert sorted(modules - imported - set(ENTRY_POINTS)) == []


def _export_table(tree: ast.Module) -> list[ast.Assign]:
    """The module's top-level ``_EXPORTS``/``__all__`` assignments."""
    return [
        node for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) in ("_EXPORTS", "__all__") for t in node.targets)
    ]


def _exported_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in _export_table(tree):
        keys = node.value.keys if isinstance(node.value, ast.Dict) else getattr(
            node.value, "elts", []
        )
        names.update(k.value for k in keys if isinstance(k, ast.Constant))
    return names


def _walk(node: ast.AST, skipped: set):
    """``ast.walk`` in source order, without the subtrees in ``skipped``."""
    if node in skipped:
        return
    yield node
    for child in ast.iter_child_nodes(node):
        yield from _walk(child, skipped)


def _program_uses() -> set[str]:
    """Every name the code outside ``tests/`` uses.

    A use is a loaded name, a loaded attribute or an imported name;
    comments, docstrings and other strings are not uses.  Export tables
    are declarations, and so are a package ``__init__``'s own
    (re-export) imports; both are left out.
    """
    used: set[str] = set()
    for tree in PROGRAM_TREES:
        for path in (SRC.parent / tree).rglob("*.py"):
            module = ast.parse(path.read_text(encoding="utf-8"))
            skipped = set(_export_table(module))
            if path.stem == "__init__":
                skipped.update(
                    n for n in module.body if isinstance(n, (ast.Import, ast.ImportFrom))
                )
            for node in _walk(module, skipped):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rpartition(".")[2])
    return used


#: Exported names kept for users although no program outside ``tests/``
#: uses them, each with its reason.  Every other export needs a use.
USER_ONLY_EXPORTS = {
    "IndexTree": "the paper's Figure 5 tree; ROADMAP item 10 decides whether it stays",
    "build_corpus_from_texts": "the only path from raw text to a corpus",
}


class TestNoTestOnlyExports:
    def test_every_export_is_reached_outside_the_tests(self):
        """A name in a package export table that only ``tests/`` uses is
        dead weight: delete it, or move it into the test that uses it as
        a reference.  Only :data:`USER_ONLY_EXPORTS` are exempt."""
        exported: set[str] = set()
        for init in (SRC / "repro").rglob("__init__.py"):
            exported |= _exported_names(ast.parse(init.read_text(encoding="utf-8")))
        unreached = exported - _program_uses()
        assert sorted(unreached - set(USER_ONLY_EXPORTS)) == []
        assert set(USER_ONLY_EXPORTS) <= unreached, "a kept name is used now"
