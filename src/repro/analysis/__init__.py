"""Analysis layer: roofline characterization, metrics, breakdowns, reports."""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first access: the CLI's
#: tables need :mod:`~repro.analysis.reporting`, not the trainer that the
#: breakdown and metrics modules import.
_EXPORTS = {
    "table1_rows": "repro.analysis.roofline",
    "average_intensity": "repro.analysis.roofline",
    "is_memory_bound": "repro.analysis.roofline",
    "attainable_gflops": "repro.analysis.roofline",
    "tokens_per_sec_bound": "repro.analysis.roofline",
    "StepIntensity": "repro.analysis.roofline",
    "throughput_series": "repro.analysis.metrics",
    "convergence_series": "repro.analysis.metrics",
    "average_throughput": "repro.analysis.metrics",
    "warmup_ratio": "repro.analysis.metrics",
    "scaling_table": "repro.analysis.metrics",
    "ScalingPoint": "repro.analysis.metrics",
    "time_to_quality": "repro.analysis.metrics",
    "table5_fractions": "repro.analysis.breakdown",
    "full_fractions": "repro.analysis.breakdown",
    "sampling_dominates": "repro.analysis.breakdown",
    "TABLE5_KERNELS": "repro.analysis.breakdown",
    "render_table": "repro.analysis.reporting",
    "render_series": "repro.analysis.reporting",
    "render_sparkline": "repro.analysis.reporting",
    "HeldOutResult": "repro.analysis.heldout",
    "document_completion": "repro.analysis.heldout",
    "split_documents": "repro.analysis.heldout",
    "replay_iteration_seconds": "repro.analysis.replay",
    "replay_throughput_series": "repro.analysis.replay",
    "replay_kernel_seconds": "repro.analysis.replay",
    "replay_cumulative_seconds": "repro.analysis.replay",
    "top_words_matrix": "repro.analysis.topics",
    "umass_coherence": "repro.analysis.topics",
    "topic_diversity": "repro.analysis.topics",
    "topic_shares": "repro.analysis.topics",
    "effective_topics": "repro.analysis.topics",
    "word_distribution": "repro.analysis.topics",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
