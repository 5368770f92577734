"""The adapter translating every concrete trainer onto the unified protocol.

All five trainers share one native surface: ``train(n,
compute_likelihood_every=...)`` appends one
:class:`~repro.core.trainer.IterationRecord` per iteration to their
``history`` list, and ``state`` is the model.  :class:`HistoryTrainerAdapter`
turns that surface into an :class:`~repro.api.protocol.LdaTrainer`.

Unknown attributes delegate to the wrapped trainer, so
algorithm-specific surfaces (``outcomes``, ``kernel_breakdown``,
``config``) stay reachable through the adapter.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.api.protocol import IterationRecord, LdaTrainer

__all__ = ["HistoryTrainerAdapter"]


class HistoryTrainerAdapter(LdaTrainer):
    """Wrap a trainer with a native ``train``/``history`` surface."""

    def __init__(
        self,
        inner: Any,
        name: str,
        description: str,
        options: Mapping[str, Any],
    ):
        self.inner = inner
        self.name = name
        self.description = description
        self._options = dict(options)

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "options": dict(self._options),
            "implementation": type(self.inner).__name__,
            "native": self.inner.describe(),
        }

    def _export_metadata(self) -> dict[str, Any]:
        # The shared export_model default does the artifact work; the
        # adapter only adds the normalized construction options.
        meta = super()._export_metadata()
        meta["options"] = dict(self._options)
        return meta

    def __getattr__(self, attr: str) -> Any:
        # Only called for attributes not found on the adapter itself.
        return getattr(self.inner, attr)

    @property
    def history(self) -> list[IterationRecord]:
        return list(self.inner.history)

    @property
    def state(self) -> Any:
        return self.inner.state

    @property
    def num_tokens(self) -> int:
        return int(self.inner.corpus.num_tokens)

    def _fit_span(
        self, num_iterations: int, likelihood_every: int
    ) -> list[IterationRecord]:
        # One native train call for the whole span: the inner trainer
        # applies the same modulus cadence, and multi-iteration process
        # optimizations (sync_mode="overlap") can pipeline across it.
        before = len(self.inner.history)
        self.inner.train(
            num_iterations, compute_likelihood_every=likelihood_every
        )
        return list(self.inner.history[before:])
