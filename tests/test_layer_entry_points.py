"""The per-layer entry points ``perfbench`` wraps must stay on the path.

``perfbench/train.py::_patch_layers`` times each layer by wrapping a
module-level name.  A refactor that calls a layer some other way would
leave its wrapper silent and zero that row of the per-layer ledger
without any error, so these tests count the calls through the same
names.
"""

import functools

import pytest

import repro.core.model as model_mod
import repro.core.scheduler as scheduler_mod
import repro.core.trainer as trainer_mod
from repro.core import CuLdaTrainer, TrainerConfig


def _count_calls(monkeypatch, owner, name, counts):
    orig = getattr(owner, name)

    @functools.wraps(orig)
    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_serial_run_reaches_every_patched_layer(small_corpus, monkeypatch):
    cfg = TrainerConfig(num_topics=8, seed=0, num_gpus=2, chunks_per_gpu=2)
    t = CuLdaTrainer(small_corpus, cfg)
    counts = {}
    for owner, name in [
        (scheduler_mod, "sample_chunk"),
        (scheduler_mod, "apply_phi_update"),
        (scheduler_mod, "charge_chunk_costs"),
        (model_mod.ChunkState, "rebuild_theta"),
        (trainer_mod, "run_iteration"),
    ]:
        _count_calls(monkeypatch, owner, name, counts)
    t.train(1, compute_likelihood_every=0)
    assert counts == {
        "sample_chunk": 4,
        "apply_phi_update": 4,
        "charge_chunk_costs": 4,
        "rebuild_theta": 4,
        "run_iteration": 1,
    }


@pytest.mark.parametrize("sync_mode", ["barrier", "overlap"])
def test_process_run_reaches_master_accounting(small_corpus, monkeypatch, sync_mode):
    counts = {}
    _count_calls(monkeypatch, trainer_mod, "replay_parallel_accounting", counts)
    cfg = TrainerConfig(
        num_topics=8, seed=0, num_gpus=2, execution="process", num_workers=2,
        sync_mode=sync_mode,
    )
    with CuLdaTrainer(small_corpus, cfg) as t:
        t.train(1, compute_likelihood_every=0)
    assert counts == {"replay_parallel_accounting": 1}
