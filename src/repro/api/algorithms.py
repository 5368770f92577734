"""Built-in algorithm registrations: the five systems, one surface.

Each factory normalizes the unified keyword surface (``topics``,
``alpha``, ``beta``, ``seed`` plus per-algorithm extras) into the
concrete trainer's native config and wraps it in the one adapter.
Imported lazily by :mod:`repro.api.registry` on first lookup.
"""

from __future__ import annotations

from repro.api.adapters import HistoryTrainerAdapter
from repro.api.registry import register_algorithm
from repro.baselines.ldastar import LdaStarTrainer
from repro.baselines.plain_cgs import PlainCgsSampler
from repro.baselines.saberlda import SaberLdaTrainer
from repro.baselines.warplda import WarpLdaConfig, WarpLdaTrainer
from repro.core.config import TrainerConfig
from repro.core.trainer import CuLdaTrainer
from repro.gpusim.platform import platform_by_name

DEFAULT_TOPICS = 128


def _resolve_platform(platform):
    """Accept a Platform instance or a Table 2 platform name."""
    if platform is None or not isinstance(platform, str):
        return platform
    return platform_by_name(platform)


@register_algorithm(
    "culda",
    summary=CuLdaTrainer.DESCRIPTION,
    options={
        "gpus": "number of simulated GPUs G (default 1)",
        "chunks_per_gpu": "chunks per GPU M; M>1 streams out-of-core",
        "platform": "Table 2 platform name or Platform object",
        "device_spec": "bare DeviceSpec (mutually exclusive with platform)",
        "compress": "16-bit model compression (default True)",
        "share_p2_tree": "block-shared p2/p* tree (default True)",
        "use_l1_for_indices": "route sparse-index loads via L1 (default True)",
        "overlap_transfers": "pipeline transfers with compute (default True)",
        "tokens_per_block": "token cap per thread block (default 1024)",
        "execution": "device-loop executor: serial (default) or process "
                     "(real OS workers over shared memory; same draws)",
        "num_workers": "OS worker processes for execution=process "
                       "(default min(gpus, usable CPUs))",
        "sync_mode": "process-mode sync: barrier (default) or overlap "
                     "(pipelined against the next iteration; same draws)",
        "worker_affinity": "CPU ids to pin OS workers to (round-robin)",
        "recovery_retries": "process-mode crash-recovery respawn budget "
                            "per incident (default 2; 0 disables)",
        "recovery_backoff": "base seconds backed off before respawn "
                            "attempt k: base*2**(k-1) (default 0.05)",
        "validate_every": "run invariant checks every N iterations (0 off)",
    },
)
def _make_culda(
    corpus,
    topics: int = DEFAULT_TOPICS,
    alpha: float | None = None,
    beta: float | None = None,
    seed: int = 0,
    gpus: int = 1,
    chunks_per_gpu: int = 1,
    platform=None,
    device_spec=None,
    compress: bool = True,
    share_p2_tree: bool = True,
    use_l1_for_indices: bool = True,
    overlap_transfers: bool = True,
    tokens_per_block: int = 1024,
    execution: str = "serial",
    num_workers: int | None = None,
    sync_mode: str = "barrier",
    worker_affinity=None,
    recovery_retries: int = 2,
    recovery_backoff: float = 0.05,
    validate_every: int = 0,
):
    config = TrainerConfig(
        num_topics=topics,
        alpha=alpha,
        beta=beta,
        num_gpus=gpus,
        chunks_per_gpu=chunks_per_gpu,
        compress=compress,
        share_p2_tree=share_p2_tree,
        use_l1_for_indices=use_l1_for_indices,
        overlap_transfers=overlap_transfers,
        tokens_per_block=tokens_per_block,
        execution=execution,
        num_workers=num_workers,
        sync_mode=sync_mode,
        worker_affinity=(
            tuple(worker_affinity) if worker_affinity is not None else None
        ),
        recovery_retries=recovery_retries,
        recovery_backoff=recovery_backoff,
        seed=seed,
    )
    inner = CuLdaTrainer(
        corpus,
        config,
        platform=_resolve_platform(platform),
        device_spec=device_spec,
        validate_every=validate_every,
    )
    return HistoryTrainerAdapter(
        inner,
        name="culda",
        description=CuLdaTrainer.DESCRIPTION,
        options={"topics": topics, "gpus": gpus, "chunks_per_gpu": chunks_per_gpu,
                 "execution": execution, "num_workers": num_workers,
                 "sync_mode": sync_mode, "seed": seed},
    )


@register_algorithm(
    "saberlda",
    summary=SaberLdaTrainer.DESCRIPTION,
    options={
        "device_spec": "GPU DeviceSpec (default GTX 1080)",
    },
)
def _make_saberlda(
    corpus,
    topics: int = DEFAULT_TOPICS,
    alpha: float | None = None,
    beta: float | None = None,
    seed: int = 0,
    device_spec=None,
):
    kwargs = {"seed": seed, "alpha": alpha, "beta": beta}
    if device_spec is not None:
        kwargs["device_spec"] = device_spec
    inner = SaberLdaTrainer(corpus, num_topics=topics, **kwargs)
    return HistoryTrainerAdapter(
        inner,
        name="saberlda",
        description=SaberLdaTrainer.DESCRIPTION,
        options={"topics": topics, "seed": seed},
    )


@register_algorithm(
    "ldastar",
    summary=LdaStarTrainer.DESCRIPTION,
    options={
        "workers": "cluster machines behind the parameter server "
                   "(default min(20, documents))",
        "cpu": "worker CpuSpec (default Xeon E5-2650 v3)",
        "network": "shared Link to the parameter server (default 10 GbE)",
        "execution": "cluster-worker executor: serial (default) or process "
                     "(real OS workers over shared memory; same draws)",
        "num_workers": "OS worker processes for execution=process "
                       "(default min(workers, usable CPUs))",
        "sync_mode": "process-mode sync: barrier (default) or overlap "
                     "(pipelined PS merge + worker likelihood; same draws)",
        "worker_affinity": "CPU ids to pin OS workers to (round-robin)",
        "recovery_retries": "process-mode crash-recovery respawn budget "
                            "per incident (default 2; 0 disables)",
        "recovery_backoff": "base seconds backed off before respawn "
                            "attempt k: base*2**(k-1) (default 0.05)",
    },
)
def _make_ldastar(
    corpus,
    topics: int = DEFAULT_TOPICS,
    alpha: float | None = None,
    beta: float | None = None,
    seed: int = 0,
    workers: int | None = None,
    cpu=None,
    network=None,
    execution: str = "serial",
    num_workers: int | None = None,
    sync_mode: str = "barrier",
    worker_affinity=None,
    recovery_retries: int = 2,
    recovery_backoff: float = 0.05,
):
    if workers is None:
        workers = min(20, corpus.num_docs)
    kwargs = {
        "num_workers": workers, "alpha": alpha, "beta": beta, "seed": seed,
        "execution": execution, "num_processes": num_workers,
        "sync_mode": sync_mode, "worker_affinity": worker_affinity,
        "recovery_retries": recovery_retries,
        "recovery_backoff": recovery_backoff,
    }
    if cpu is not None:
        kwargs["cpu"] = cpu
    if network is not None:
        kwargs["network"] = network
    inner = LdaStarTrainer(corpus, num_topics=topics, **kwargs)
    return HistoryTrainerAdapter(
        inner,
        name="ldastar",
        description=LdaStarTrainer.DESCRIPTION,
        options={"topics": topics, "workers": workers,
                 "execution": execution, "num_workers": num_workers,
                 "sync_mode": sync_mode, "seed": seed},
    )


@register_algorithm(
    "warplda",
    summary=WarpLdaTrainer.DESCRIPTION,
    options={
        "mh_rounds": "doc+word proposal pairs per token per iteration",
        "cpu": "CpuSpec for the simulated clock (default Xeon E5-2690 v4)",
        "working_set_override": "price the cache model at this many bytes",
    },
)
def _make_warplda(
    corpus,
    topics: int = DEFAULT_TOPICS,
    alpha: float | None = None,
    beta: float | None = None,
    seed: int = 0,
    mh_rounds: int = 1,
    cpu=None,
    working_set_override: float | None = None,
):
    config = WarpLdaConfig(
        num_topics=topics, alpha=alpha, beta=beta, mh_rounds=mh_rounds, seed=seed
    )
    kwargs = {"working_set_override": working_set_override}
    if cpu is not None:
        kwargs["cpu"] = cpu
    inner = WarpLdaTrainer(corpus, config, **kwargs)
    return HistoryTrainerAdapter(
        inner,
        name="warplda",
        description=WarpLdaTrainer.DESCRIPTION,
        options={"topics": topics, "mh_rounds": mh_rounds, "seed": seed},
    )


@register_algorithm(
    "plain_cgs",
    summary=PlainCgsSampler.DESCRIPTION,
)
def _make_plain_cgs(
    corpus,
    topics: int = DEFAULT_TOPICS,
    alpha: float | None = None,
    beta: float | None = None,
    seed: int = 0,
):
    inner = PlainCgsSampler(
        corpus, num_topics=topics, alpha=alpha, beta=beta, seed=seed
    )
    return HistoryTrainerAdapter(
        inner,
        name="plain_cgs",
        description=PlainCgsSampler.DESCRIPTION,
        options={"topics": topics, "seed": seed},
    )

