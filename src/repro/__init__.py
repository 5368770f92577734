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
    result = trainer.fit(50, likelihood_every=5)
    print(result.summary())

``repro.algorithm_names()`` lists the registered systems (CuLDA_CGS and
the four comparison baselines); ``python -m repro algorithms`` prints
their options.  See docs/API.md for the protocol and registry
contracts.
"""

from repro._lazy import lazy_exports

__version__ = "2.0.0"

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
    # model artifacts + inference
    "TopicModel": "repro.model",
    "InferenceSession": "repro.model",
    # core building blocks
    "TrainerConfig": "repro.core.config",
    "LdaState": "repro.core.model",
    "log_likelihood_per_token": "repro.core.likelihood",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
