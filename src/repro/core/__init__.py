"""Core CuLDA_CGS implementation: the paper's primary contribution.

Public surface:

- :class:`~repro.core.config.TrainerConfig` — run configuration;
- :class:`~repro.core.trainer.CuLdaTrainer` — end-to-end training;
- :class:`~repro.core.model.LdaState` — model state and invariants;
- :class:`~repro.core.tree.IndexTree` — Figure 5 tree-based sampling;
- :func:`~repro.core.sampler.sample_chunk` — the Algorithm 2 kernel;
- :func:`~repro.core.likelihood.log_likelihood_per_token` — Figure 8 metric.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "TrainerConfig": "repro.core.config",
    "CuLdaTrainer": "repro.core.trainer",
    "IterationRecord": "repro.core.trainer",
    "LdaState": "repro.core.model",
    "ChunkState": "repro.core.model",
    "RngPool": "repro.core.rng",
    "FoldInSampler": "repro.core.inference",
    "save_model": "repro.core.snapshot",
    "load_model": "repro.core.snapshot",
    "save_checkpoint": "repro.core.snapshot",
    "load_checkpoint": "repro.core.snapshot",
    "load_checkpoint_full": "repro.core.snapshot",
    "CheckpointBundle": "repro.core.snapshot",
    "run_info": "repro.core.snapshot",
    "IndexTree": "repro.core.tree",
    "cdf_sample": "repro.core.tree",
    "sample_chunk": "repro.core.sampler",
    "SampleResult": "repro.core.sampler",
    "conditional_distribution": "repro.core.sampler",
    "log_likelihood": "repro.core.likelihood",
    "log_likelihood_per_token": "repro.core.likelihood",
    "perplexity": "repro.core.likelihood",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
