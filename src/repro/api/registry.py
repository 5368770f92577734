"""String-keyed algorithm registry: one constructor for five systems.

Every LDA system in the repo registers a factory under a short name and
declares its accepted keyword options, so callers — the CLI, the
benchmarks, the examples — construct any of them the same way::

    from repro import create_trainer
    trainer = create_trainer("warplda", corpus, topics=128, mh_rounds=2)
    result = trainer.fit(50)

:func:`register_algorithm` adds an algorithm of your own under a new
name; the built-ins use it as a decorator.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro.api.protocol import LdaTrainer

__all__ = [
    "AlgorithmSpec",
    "register_algorithm",
    "create_trainer",
    "algorithm_names",
    "get_algorithm",
]

#: Options every algorithm accepts (normalized across the five configs).
COMMON_OPTIONS: dict[str, str] = {
    "topics": "number of topics K (default 128)",
    "alpha": "Dirichlet doc-topic prior; default 50/K",
    "beta": "Dirichlet topic-word prior; default 0.01",
    "seed": "RNG seed (default 0)",
}


@dataclass(frozen=True)
class AlgorithmSpec:
    """A registered algorithm: its factory and keyword surface."""

    name: str
    summary: str
    factory: Callable[..., LdaTrainer]
    options: Mapping[str, str] = field(default_factory=dict)

    def all_options(self) -> dict[str, str]:
        """Common options merged with the algorithm's own."""
        merged = dict(COMMON_OPTIONS)
        merged.update(self.options)
        return merged


_REGISTRY: dict[str, AlgorithmSpec] = {}
_builtins_loaded = False


def _ensure_builtins() -> None:
    """Import the built-in registrations exactly once (lazily, to keep
    ``import repro`` cheap and cycle-free).

    The flag flips *before* the in-progress import finishes (the
    decorators inside :mod:`repro.api.algorithms` re-enter here, and
    Python's module cache makes the nested import a no-op), but only
    once the module has actually started executing — a failed import is
    retried, never silently swallowed.
    """
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    try:
        import repro.api.algorithms  # noqa: F401  (registers on import)
    except BaseException:
        _builtins_loaded = False
        raise


def register_algorithm(
    name: str,
    factory: Callable[..., LdaTrainer] | None = None,
    *,
    summary: str = "",
    options: Mapping[str, str] | None = None,
):
    """Register ``factory`` under ``name``; usable as a decorator.

    The factory signature is ``factory(corpus, **kwargs) -> LdaTrainer``;
    ``kwargs`` are validated against ``options`` (plus the common set)
    before the factory is invoked.  A name already registered raises
    ``ValueError``.
    """

    def _register(fn: Callable[..., LdaTrainer]):
        # Load the built-ins first so a caller registering a clashing
        # name fails here, at its own call site, instead of corrupting
        # the registry when the built-in import trips over it later.
        _ensure_builtins()
        key = name.lower()
        if not key or any(c.isspace() for c in key):
            raise ValueError(f"invalid algorithm name {name!r}")
        if key in _REGISTRY:
            raise ValueError(f"algorithm {key!r} is already registered")
        doc_lines = (fn.__doc__ or "").strip().splitlines()
        _REGISTRY[key] = AlgorithmSpec(
            name=key,
            summary=summary or (doc_lines[0] if doc_lines else ""),
            factory=fn,
            options=dict(options or {}),
        )
        return fn

    if factory is not None:
        return _register(factory)
    return _register


def algorithm_names() -> list[str]:
    """Sorted names of every registered algorithm."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up a registration; unknown names list the known ones."""
    _ensure_builtins()
    key = name.lower()
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ValueError(f"unknown algorithm {name!r}; registered: {known}")
    return _REGISTRY[key]


def create_trainer(name: str, corpus, **kwargs) -> LdaTrainer:
    """Construct the named algorithm on ``corpus`` with normalized options.

    Raises
    ------
    ValueError
        Unknown algorithm, a keyword the algorithm does not accept
        (the error lists the accepted set), or a corpus with no tokens.
    """
    spec = get_algorithm(name)
    accepted = spec.all_options()
    unknown = sorted(set(kwargs) - set(accepted))
    if unknown:
        raise ValueError(
            f"algorithm {spec.name!r} does not accept "
            f"{', '.join(unknown)}; accepted options: "
            f"{', '.join(sorted(accepted))}"
        )
    if corpus.num_tokens == 0:
        raise ValueError(f"cannot train {spec.name!r} on a corpus with no tokens")
    trainer = spec.factory(corpus, **kwargs)
    if not isinstance(trainer, LdaTrainer):
        raise TypeError(
            f"factory for {spec.name!r} returned "
            f"{type(trainer).__name__}, not an LdaTrainer"
        )
    return trainer

