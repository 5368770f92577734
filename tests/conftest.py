"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import multiprocessing
import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core import TrainerConfig
from repro.corpus.document import Corpus
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec
from repro.parallel.shm import ShmArena

# Property tests touch numerics whose runtime varies across machines;
# disable deadlines to keep the suite deterministic.
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


#: Names of the shared-memory segments ``ShmArena.create`` made in this
#: process.  The leak checks look only at these, so a concurrent pytest
#: session's segments in the machine-wide ``/dev/shm`` never fail them.
_created: set[str] = set()


def _shm_segments() -> set[str]:
    """The segments this process created that still exist."""
    return {
        name for name in _created if os.path.exists(f"/dev/shm/{name}")
    }


@pytest.fixture
def shm_segments():
    """The function listing this process's live shared-memory segments,
    for before/after leak checks inside one test."""
    return _shm_segments


@pytest.fixture(scope="session", autouse=True)
def leak_census():
    """Records every arena this process creates and, at session end,
    checks that no such segment, child process or non-daemon thread is
    left behind."""
    create = ShmArena.create.__func__

    def recording_create(cls, specs):
        arena = create(cls, specs)
        _created.add(arena.layout.shm_name)
        return arena

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ShmArena, "create", classmethod(recording_create))
        yield
    assert _shm_segments() == set(), "leaked /dev/shm segments"
    assert multiprocessing.active_children() == [], "leaked child processes"
    threads = [
        t for t in threading.enumerate()
        if t is not threading.main_thread() and not t.daemon
    ]
    assert threads == [], "leaked non-daemon threads"


@pytest.fixture(scope="session")
def tiny_corpus() -> Corpus:
    """A hand-built corpus: 4 docs, 6 words, 18 tokens (Figure 1 scale)."""
    return Corpus.from_token_lists(
        [
            [0, 1, 2, 1, 0],
            [3, 4, 3, 3],
            [5, 0, 2, 2, 4],
            [1, 5, 4, 3],
        ],
        num_words=6,
    )


@pytest.fixture(scope="session")
def small_corpus() -> Corpus:
    """A generated corpus comfortable for integration tests."""
    return generate_synthetic_corpus(
        small_spec(num_docs=120, num_words=300, mean_doc_len=40, num_topics=8),
        seed=42,
    )


@pytest.fixture(scope="session")
def medium_corpus() -> Corpus:
    """Larger corpus for scheduler/trainer integration tests."""
    return generate_synthetic_corpus(
        small_spec(num_docs=400, num_words=900, mean_doc_len=60, num_topics=12),
        seed=7,
    )


@pytest.fixture(scope="session")
def scaling_corpus() -> Corpus:
    """Big enough that per-iteration kernel time dwarfs sync latency.

    Multi-GPU speedup only exists when sampling >> PCIe latency — at toy
    scale the (realistic) fixed sync cost wins, so scaling tests need a
    corpus with O(100k) tokens.
    """
    return generate_synthetic_corpus(
        small_spec(num_docs=1500, num_words=2000, mean_doc_len=90, num_topics=16),
        seed=13,
    )


@pytest.fixture()
def base_config() -> TrainerConfig:
    return TrainerConfig(num_topics=16, seed=123)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
