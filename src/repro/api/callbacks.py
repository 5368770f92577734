"""Training-loop callbacks: cadence, checkpointing, early stop, progress.

These replace the hardcoded ``compute_likelihood_every`` /
``validate_every`` plumbing that each trainer used to carry.  Hooks:

- ``on_train_begin(trainer, num_iterations)`` before the first iteration;
- ``on_iteration_end(trainer, record)`` after each iteration — return
  True to stop training early;
- ``on_train_end(trainer, result)`` after the loop.

A callback that needs LL/token on every record (e.g. early stopping)
sets ``needs_likelihood = True``; :class:`LikelihoodCadence` instead
takes over the cadence decision entirely.
"""

from __future__ import annotations

import sys
import warnings
from collections.abc import Iterable
from pathlib import Path
from typing import TYPE_CHECKING, Any, TextIO

from repro.core.model import LdaState
from repro.core.snapshot import run_info, save_checkpoint
from repro.integrity import verify_artifact

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.protocol import IterationRecord, TrainResult

__all__ = [
    "Callback",
    "LikelihoodCadence",
    "EarlyStopping",
    "Checkpointer",
    "ProgressLogger",
    "likelihood_needed",
]


class Callback:
    """No-op base; subclass and override the hooks you need."""

    #: True when this callback requires LL/token in every record.
    needs_likelihood: bool = False

    def on_train_begin(self, trainer: Any, num_iterations: int) -> None:
        pass

    def on_iteration_end(self, trainer: Any, record: IterationRecord):
        return None

    def on_train_end(self, trainer: Any, result: TrainResult) -> None:
        pass


class LikelihoodCadence(Callback):
    """Compute LL/token every ``every`` iterations (0 = never).

    When present, this callback *owns* the cadence: the loop's
    ``likelihood_every`` default is ignored.
    """

    def __init__(self, every: int):
        if every < 0:
            raise ValueError("every must be non-negative")
        self.every = every

    def needed(self, iteration: int) -> bool:
        return bool(self.every) and (iteration + 1) % self.every == 0


class EarlyStopping(Callback):
    """Stop when LL/token stops improving (plateau detection).

    Parameters
    ----------
    patience:
        Consecutive evaluated iterations without improvement tolerated
        before stopping.
    min_delta:
        Minimum LL/token gain over the best seen that counts as
        improvement (LL/token is negative and increases as the model
        improves).
    """

    needs_likelihood = True

    def __init__(self, patience: int = 3, min_delta: float = 1e-3):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        if min_delta < 0:
            raise ValueError("min_delta must be non-negative")
        self.patience = patience
        self.min_delta = min_delta
        self.best: float | None = None
        self.stale = 0
        self.stopped_iteration: int | None = None

    def on_iteration_end(self, trainer: Any, record: IterationRecord):
        ll = record.log_likelihood_per_token
        if ll is None:
            return None
        if self.best is None or ll > self.best + self.min_delta:
            self.best = ll
            self.stale = 0
            return None
        self.stale += 1
        if self.stale >= self.patience:
            self.stopped_iteration = record.iteration
            return True
        return None


class Checkpointer(Callback):
    """Persist resumable training state every ``every`` iterations.

    Uses :func:`repro.core.snapshot.save_checkpoint`, which requires the
    chunked :class:`~repro.core.model.LdaState` (the CuLDA-family
    trainers).  For model-only algorithms the callback is a no-op and
    records the skip in :attr:`skipped`.

    ``path`` may contain ``{iteration}``, expanded per save; otherwise
    the file is overwritten each time.  Saves are atomic (temp file +
    rename) and carry the v2 resumable-run record when the trainer
    exposes one (registry adapters do), so ``repro train --resume``
    works straight off a callback-saved file.

    Parameters
    ----------
    keep_last:
        When set (and ``path`` expands to distinct files), only the
        newest N checkpoints are kept; older saves are deleted after
        each successful write — bounded disk, crash-safe ordering.
        Every fresh write is **load-verified first** (reopened, payload
        digest recomputed — :func:`repro.integrity.verify_artifact`):
        a file that fails verification is recorded in
        :attr:`verify_failures`, warned about, and never counted toward
        ``keep_last`` — a torn final write cannot destroy the last good
        checkpoint.
    save_on_recovery:
        Checkpoint immediately after the trainer reports a crash
        recovery (its ``recovery_events`` grew this iteration), without
        waiting for the cadence — the run just proved it is running on
        infrastructure that fails.
    """

    def __init__(
        self,
        path: str | Path,
        every: int = 10,
        *,
        keep_last: int | None = None,
        save_on_recovery: bool = True,
    ):
        if every < 1:
            raise ValueError("every must be >= 1")
        if keep_last is not None and keep_last < 1:
            raise ValueError("keep_last must be >= 1 (or None)")
        self.path = str(path)
        self.every = every
        self.keep_last = keep_last
        self.save_on_recovery = save_on_recovery
        self.saved: list[Path] = []
        #: Writes that failed the post-save integrity check (kept on
        #: disk as evidence; never counted toward ``keep_last``).
        self.verify_failures: list[Path] = []
        self.skipped = False
        self._recoveries_seen = 0

    def on_train_begin(self, trainer: Any, num_iterations: int) -> None:
        self._recoveries_seen = len(getattr(trainer, "recovery_events", ()))

    def _recovered(self, trainer: Any) -> bool:
        seen = len(getattr(trainer, "recovery_events", ()))
        grew = seen > self._recoveries_seen
        self._recoveries_seen = seen
        return grew

    def on_iteration_end(self, trainer: Any, record: IterationRecord):
        due = (record.iteration + 1) % self.every == 0
        if self.save_on_recovery and self._recovered(trainer):
            due = True
        if not due:
            return None
        state = trainer.state
        if not isinstance(state, LdaState):
            self.skipped = True
            return None
        target = Path(self.path.format(iteration=record.iteration))
        written = save_checkpoint(
            state,
            target,
            vocabulary=getattr(
                getattr(trainer, "corpus", None), "vocabulary", None
            ),
            run=run_info(trainer),
        )
        # Load-verify the fresh write (reopen + digest check) BEFORE any
        # pruning: if this file is torn or bit-flipped, the older
        # checkpoints are the only good ones left — keep them.
        report = verify_artifact(written)
        if report["status"] == "corrupt":
            self.verify_failures.append(written)
            warnings.warn(
                f"checkpoint {written} failed post-write verification "
                f"({report.get('detail', 'digest mismatch')}); older "
                f"checkpoints were NOT pruned",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        if written not in self.saved:
            self.saved.append(written)
        if self.keep_last is not None:
            while len(self.saved) > self.keep_last:
                old = self.saved.pop(0)
                try:
                    old.unlink()
                except OSError:  # pragma: no cover - already gone
                    pass
        return None


class ProgressLogger(Callback):
    """Print one status line every ``every`` iterations."""

    def __init__(self, every: int = 1, stream: TextIO | None = None):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = every
        self.stream = stream

    def _out(self) -> TextIO:
        return self.stream if self.stream is not None else sys.stdout

    def on_train_begin(self, trainer: Any, num_iterations: int) -> None:
        print(
            f"[{trainer.name}] training for up to "
            f"{num_iterations} iterations",
            file=self._out(),
        )

    def on_iteration_end(self, trainer: Any, record: IterationRecord):
        if (record.iteration + 1) % self.every != 0:
            return None
        ll = record.log_likelihood_per_token
        ll_txt = f" LL/token={ll:.4f}" if ll is not None else ""
        print(
            f"[{trainer.name}] iter {record.iteration + 1}: "
            f"{record.tokens_per_sec / 1e6:.1f}M tokens/s{ll_txt}",
            file=self._out(),
        )
        return None

    def on_train_end(self, trainer: Any, result: TrainResult) -> None:
        tail = " (early stop)" if result.early_stopped else ""
        print(
            f"[{trainer.name}] done: "
            f"{result.num_iterations} iterations{tail}",
            file=self._out(),
        )


def likelihood_needed(
    callbacks: Iterable[Callback], iteration: int, default_every: int
) -> bool:
    """Resolve whether this iteration's record should carry LL/token.

    Cadence callbacks own the decision when present; otherwise the
    ``default_every`` modulus applies.  Any callback with
    ``needs_likelihood`` forces computation regardless.
    """
    from repro.core.likelihood import likelihood_due

    cbs = list(callbacks)
    if any(cb.needs_likelihood for cb in cbs):
        return True
    cadences = [cb for cb in cbs if isinstance(cb, LikelihoodCadence)]
    if cadences:
        return any(c.needed(iteration) for c in cadences)
    return likelihood_due(iteration, default_every)
