"""Tests for execution tracing and the overlap metrics."""

import json

import pytest

from repro.core import CuLdaTrainer, TrainerConfig
from repro.gpusim.clock import KernelCost
from repro.gpusim.device import SimulatedGPU
from repro.gpusim.platform import TITAN_XP_PASCAL, V100_VOLTA
from repro.gpusim.stream import COMPUTE, COPY_H2D
from repro.gpusim.trace import (
    TraceEvent,
    busy_time,
    export_chrome_trace,
    overlap_time,
)


class TestRecording:
    def test_launch_recorded(self):
        gpu = SimulatedGPU(0, V100_VOLTA)
        gpu.launch("sampling", KernelCost(bytes_read=1e6))
        assert len(gpu.trace) == 1
        e = gpu.trace[0]
        assert e.name == "sampling"
        assert e.engine == COMPUTE
        assert e.end > e.start

    def test_transfers_recorded(self):
        gpu = SimulatedGPU(0, V100_VOLTA)
        gpu.h2d("transfer", 1e6)
        gpu.d2h("transfer", 1e6)
        assert [e.engine for e in gpu.trace] == ["copy_h2d", "copy_d2h"]

    def test_events_ordered_within_stream(self):
        gpu = SimulatedGPU(0, V100_VOLTA)
        gpu.launch("a", KernelCost(bytes_read=1e6))
        gpu.launch("b", KernelCost(bytes_read=1e6))
        assert gpu.trace[0].end <= gpu.trace[1].start


class TestIntervalMath:
    def test_busy_time_merges_overlaps(self):
        evs = [
            TraceEvent(0, "a", COMPUTE, 0.0, 2.0),
            TraceEvent(0, "b", COMPUTE, 1.0, 3.0),
            TraceEvent(0, "c", COMPUTE, 5.0, 6.0),
        ]
        assert busy_time(evs) == pytest.approx(4.0)

    def test_busy_time_engine_filter(self):
        evs = [
            TraceEvent(0, "a", COMPUTE, 0.0, 1.0),
            TraceEvent(0, "t", COPY_H2D, 0.0, 5.0),
        ]
        assert busy_time(evs, COMPUTE) == pytest.approx(1.0)

    def test_busy_time_empty(self):
        assert busy_time([]) == 0.0

    def test_overlap_time(self):
        evs = [
            TraceEvent(0, "k", COMPUTE, 0.0, 4.0),
            TraceEvent(0, "t", COPY_H2D, 2.0, 6.0),
            TraceEvent(0, "t", COPY_H2D, 7.0, 8.0),
        ]
        assert overlap_time(evs, COMPUTE, COPY_H2D) == pytest.approx(2.0)


class TestSchedule2Overlap:
    def test_pipeline_overlap_visible_in_trace(self, medium_corpus):
        """WorkSchedule2 with overlap must show copy-under-compute time."""
        cfg = TrainerConfig(
            num_topics=16, seed=0, chunks_per_gpu=4, overlap_transfers=True
        )
        t = CuLdaTrainer(medium_corpus, cfg, device_spec=TITAN_XP_PASCAL)
        t.train(2, compute_likelihood_every=0)
        trace = t.devices[0].gpu.trace
        hidden = overlap_time(trace, COMPUTE, "copy_h2d")
        assert hidden > 0.0

        cfg_off = TrainerConfig(
            num_topics=16, seed=0, chunks_per_gpu=4, overlap_transfers=False
        )
        t_off = CuLdaTrainer(medium_corpus, cfg_off, device_spec=TITAN_XP_PASCAL)
        t_off.train(2, compute_likelihood_every=0)
        hidden_off = overlap_time(t_off.devices[0].gpu.trace, COMPUTE, "copy_h2d")
        assert hidden > hidden_off


class TestExport:
    def test_chrome_trace_format(self, tmp_path):
        gpu = SimulatedGPU(3, V100_VOLTA)
        gpu.launch("sampling", KernelCost(bytes_read=1e6))
        gpu.h2d("transfer", 1e6)
        path = tmp_path / "trace.json"
        export_chrome_trace(gpu.trace, path)
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == 2
        ev = data["traceEvents"][0]
        assert ev["ph"] == "X"
        assert ev["pid"] == 3
        assert ev["ts"] >= 0 and ev["dur"] > 0
