"""repro — reproduction of *CuLDA_CGS: Solving Large-scale LDA Problems
on GPUs* (Xie, Liang, Li, Tan; PPoPP 2019).

A multi-GPU (simulated) sparsity-aware Collapsed Gibbs Sampling system
for Latent Dirichlet Allocation, plus the baselines and the benchmark
harness that regenerate every table and figure of the paper's
evaluation.

Quick start — every algorithm in the repo trains through one surface::

    import repro
    from repro.corpus.synthetic import small_spec, generate_synthetic_corpus

    corpus = generate_synthetic_corpus(small_spec(), seed=0)
    trainer = repro.create_trainer("culda", corpus, topics=64)
    result = trainer.fit(50, callbacks=[repro.EarlyStopping(patience=5)])
    print(result.summary())

``repro.algorithm_names()`` lists the registered systems (CuLDA_CGS and
the six comparison baselines); ``python -m repro algorithms`` prints
their options.  See docs/API.md for the protocol, registry, and
callback contracts.
"""

import warnings

from repro._lazy import lazy_exports

__version__ = "1.10.0"

#: Public name -> defining module.  Nothing here is imported until first
#: access, so ``import repro.serving`` does not pay for the training stack.
_EXPORTS = {
    # unified API
    "create_trainer": "repro.api",
    "register_algorithm": "repro.api",
    "algorithm_names": "repro.api",
    "LdaTrainer": "repro.api",
    "TrainResult": "repro.api",
    "IterationRecord": "repro.api",
    "Callback": "repro.api",
    "LikelihoodCadence": "repro.api",
    "EarlyStopping": "repro.api",
    "Checkpointer": "repro.api",
    "ProgressLogger": "repro.api",
    # model artifacts + inference
    "TopicModel": "repro.model",
    "InferenceSession": "repro.model",
    # core building blocks
    "TrainerConfig": "repro.core.config",
    "LdaState": "repro.core.model",
    "log_likelihood_per_token": "repro.core.likelihood",
    # legacy (deprecated; warns on access)
    "CuLdaTrainer": "repro.core.trainer",
}

__all__ = [*_EXPORTS, "__version__"]

#: Legacy names in ``_EXPORTS`` that warn (once per name) on access, with
#: the replacement the warning suggests.
_DEPRECATED = {"CuLdaTrainer": "repro.create_trainer('culda', corpus, ...)"}

#: Names already warned about this session (warn exactly once per name).
_warned_aliases: set[str] = set()

_resolve, __dir__ = lazy_exports(__name__, _EXPORTS)


def __getattr__(name: str):
    if name in _DEPRECATED and name not in _warned_aliases:
        _warned_aliases.add(name)
        warnings.warn(
            f"importing {name!r} from the top-level 'repro' package is "
            f"deprecated; use {_DEPRECATED[name]} instead",
            DeprecationWarning,
            stacklevel=2,
        )
    return _resolve(name)
