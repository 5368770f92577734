"""repro.api — the unified public training surface.

One protocol (:class:`LdaTrainer` / :class:`TrainResult`) and one
constructor (:func:`create_trainer`) for every LDA algorithm in the
repo::

    from repro.api import create_trainer

    trainer = create_trainer("culda", corpus, topics=128, gpus=2)
    result = trainer.fit(100, likelihood_every=5)
    print(result.summary())

See docs/API.md for the full contract.
"""

from repro.api.protocol import IterationRecord, LdaTrainer, TrainResult
from repro.api.registry import (
    AlgorithmSpec,
    algorithm_names,
    create_trainer,
    get_algorithm,
    register_algorithm,
)

__all__ = [
    "LdaTrainer",
    "TrainResult",
    "IterationRecord",
    "create_trainer",
    "register_algorithm",
    "algorithm_names",
    "get_algorithm",
    "AlgorithmSpec",
]
