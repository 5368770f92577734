"""The unified trainer protocol: one surface for every LDA system.

Every concrete trainer appends one
:class:`~repro.core.trainer.IterationRecord` per iteration to its
``history`` from ``train``, but each carries its own constructor.  This
module defines the single contract the registry puts in front of them:

- :class:`LdaTrainer` — the abstract trainer: ``fit`` / ``partial_fit`` /
  ``state`` / ``describe``; both ``fit`` and ``partial_fit`` are one
  span call;
- :class:`TrainResult` — what ``fit`` returns for *every* algorithm: the
  per-iteration :class:`~repro.core.trainer.IterationRecord` list
  (throughput, LL/token, sparsity) plus summary helpers.

The one wrapper over the concrete trainers lives in
:mod:`repro.api.adapters`; construction by name goes through
:mod:`repro.api.registry`.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.trainer import IterationRecord, mean_tokens_per_sec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.model import TopicModel

__all__ = ["IterationRecord", "LdaTrainer", "TrainResult"]


@dataclass(frozen=True)
class TrainResult:
    """Outcome of one :meth:`LdaTrainer.fit` call, for any algorithm.

    Attributes
    ----------
    algorithm:
        Registry name of the trainer that produced this result.
    records:
        One :class:`~repro.core.trainer.IterationRecord` per completed
        iteration, in order.
    """

    algorithm: str
    records: list[IterationRecord] = field(default_factory=list)

    @property
    def num_iterations(self) -> int:
        return len(self.records)

    @property
    def final_log_likelihood(self) -> float | None:
        """LL/token of the last iteration that computed it, or None."""
        for rec in reversed(self.records):
            if rec.log_likelihood_per_token is not None:
                return rec.log_likelihood_per_token
        return None

    @property
    def total_seconds(self) -> float:
        """Duration of this fit on the trainer's clock (simulated or wall)."""
        return float(sum(r.sim_seconds for r in self.records))

    def average_tokens_per_sec(self, first_n: int | None = None) -> float:
        return mean_tokens_per_sec(self.records, first_n)

    def summary(self) -> dict[str, Any]:
        """Scalar digest used by the CLI and reports."""
        return {
            "algorithm": self.algorithm,
            "iterations": self.num_iterations,
            "total_seconds": self.total_seconds,
            "tokens_per_sec": (
                self.average_tokens_per_sec() if self.records else None
            ),
            "log_likelihood_per_token": self.final_log_likelihood,
        }


class LdaTrainer(abc.ABC):
    """Abstract LDA trainer: the single public training surface.

    Implementations wrap one concrete algorithm and translate its native
    loop into the shared contract.  Subclasses provide :meth:`_fit_span`,
    :attr:`state` and :meth:`describe`; :meth:`fit` and
    :meth:`partial_fit` are each one :meth:`_fit_span` call.
    """

    #: Registry name (e.g. ``"warplda"``); set by the adapter/factory.
    name: str = "unknown"
    #: One-line human description, shown by ``repro algorithms``.
    description: str = ""

    # -- to be provided by adapters ------------------------------------------

    @abc.abstractmethod
    def _fit_span(
        self, num_iterations: int, likelihood_every: int
    ) -> list[IterationRecord]:
        """Run ``num_iterations`` as ONE underlying call; return their records.

        LL/token is computed on every ``likelihood_every``-th completed
        iteration (0 = never).  One call per span is what lets
        cross-iteration optimizations — the process engine's
        ``sync_mode="overlap"`` — pipeline across the whole span.
        """

    @property
    @abc.abstractmethod
    def state(self) -> Any:
        """The model state (``LdaState`` or ``PlainCgsModel``).

        Whatever the backing type, it exposes ``phi``, ``topic_totals``
        and the count invariants the conformance suite checks.
        """

    @property
    @abc.abstractmethod
    def num_tokens(self) -> int:
        """Token count of the training corpus (conservation invariant)."""

    @abc.abstractmethod
    def describe(self) -> Mapping[str, Any]:
        """Name, description, and the normalized options in effect."""

    # -- shared surface -------------------------------------------------------

    @property
    def iterations_done(self) -> int:
        """Total iterations completed over the trainer's lifetime."""
        return len(self.history)

    @property
    def history(self) -> list[IterationRecord]:
        """All records since construction (across fit/partial_fit calls)."""
        raise NotImplementedError

    def average_tokens_per_sec(self, first_n: int | None = None) -> float:
        """Mean per-iteration throughput over the full history."""
        return mean_tokens_per_sec(self.history, first_n)

    def _export_metadata(self) -> dict[str, Any]:
        """Provenance recorded in :meth:`export_model` artifacts.

        Subclasses extend this (JSON-serializable values only) rather
        than reimplementing ``export_model``.
        """
        return {"algorithm": self.name, "iterations": self.iterations_done}

    def export_model(self, parent: str | None = None) -> TopicModel:
        """Freeze the current model into a :class:`~repro.model.TopicModel`.

        Works for every algorithm: the artifact needs only ``phi``,
        ``topic_totals`` and the hyper-parameters, which all state types
        expose.  Attaches the training corpus's vocabulary when one is
        reachable; metadata comes from :meth:`_export_metadata` plus a
        fresh :func:`~repro.model.make_lineage` record — every export is
        its own model *generation*.  Pass ``parent`` (a generation id)
        when this model supersedes a deployed one, so a serving tier can
        roll forward/back along the chain.
        """
        from repro.model import TopicModel, make_lineage

        corpus = getattr(self, "corpus", None)
        metadata = self._export_metadata()
        metadata.setdefault("lineage", make_lineage(parent=parent))
        return TopicModel.from_state(
            self.state,
            vocabulary=getattr(corpus, "vocabulary", None),
            metadata=metadata,
        )

    def fit(
        self, num_iterations: int, likelihood_every: int = 1
    ) -> TrainResult:
        """Run ``num_iterations`` iterations as one span.

        ``likelihood_every`` is the LL/token cadence: every
        ``likelihood_every``-th completed iteration carries LL/token;
        0 disables it.
        """
        if num_iterations < 0:
            raise ValueError("num_iterations must be non-negative")
        if likelihood_every < 0:
            raise ValueError("likelihood_every must be non-negative")
        return TrainResult(
            algorithm=self.name,
            records=self._fit_span(num_iterations, likelihood_every),
        )

    def partial_fit(
        self, num_iterations: int = 1, compute_likelihood: bool = True
    ) -> list[IterationRecord]:
        """Advance training; return the records of the *new* iterations."""
        if num_iterations < 0:
            raise ValueError("num_iterations must be non-negative")
        return self._fit_span(num_iterations, 1 if compute_likelihood else 0)
