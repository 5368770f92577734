"""Lazy package namespaces (PEP 562).

A package ``__init__`` declares its public surface as one table of
name -> defining module and installs the two hooks returned by
:func:`lazy_exports`.  Importing the package then loads nothing beyond
the package itself; ``pkg.name`` and ``from pkg import name`` import the
defining module on first use.  This keeps cheap entry points cheap: the
serving process imports :mod:`repro.model` and :mod:`repro.serving`
without the training stack (and scipy) that ``repro.api`` pulls in.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from importlib import import_module


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Return the ``(__getattr__, __dir__)`` pair for ``package``.

    ``exports`` maps each public name to the module that defines it.  A
    name outside the table raises ``AttributeError`` naming the package,
    so ``from pkg import submodule`` still falls through to the import
    system.
    """

    def __getattr__(name: str) -> object:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        return getattr(import_module(module), name)

    def __dir__() -> list[str]:
        return sorted({*vars(import_module(package)), *exports})

    return __getattr__, __dir__
