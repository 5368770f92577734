"""Tests for the stream/engine timeline (WorkSchedule2 overlap machinery)."""

import pytest

from repro.gpusim.stream import COMPUTE, COPY_D2H, COPY_H2D, Timeline, barrier


class TestTimeline:
    def test_same_stream_serialises(self):
        tl = Timeline()
        s = tl.create_stream()
        tl.schedule(s, COMPUTE, 1.0)
        start, end = tl.schedule(s, COPY_H2D, 1.0)
        assert start == pytest.approx(1.0)  # program order despite free engine
        assert end == pytest.approx(2.0)

    def test_different_streams_overlap_on_different_engines(self):
        tl = Timeline()
        s1, s2 = tl.create_stream(), tl.create_stream()
        _, e1 = tl.schedule(s1, COMPUTE, 2.0)
        _, e2 = tl.schedule(s2, COPY_H2D, 2.0)
        assert e1 == pytest.approx(2.0)
        assert e2 == pytest.approx(2.0)  # full overlap

    def test_same_engine_serialises_across_streams(self):
        """One kernel at a time: 'By default, a GPU executes one kernel'."""
        tl = Timeline()
        s1, s2 = tl.create_stream(), tl.create_stream()
        tl.schedule(s1, COMPUTE, 2.0)
        start, end = tl.schedule(s2, COMPUTE, 1.0)
        assert start == pytest.approx(2.0)
        assert end == pytest.approx(3.0)

    def test_earliest_constraint(self):
        tl = Timeline()
        s = tl.create_stream()
        start, _ = tl.schedule(s, COMPUTE, 1.0, earliest=5.0)
        assert start == pytest.approx(5.0)

    def test_negative_duration(self):
        tl = Timeline()
        with pytest.raises(ValueError):
            tl.schedule(tl.create_stream(), COMPUTE, -1.0)

    def test_unknown_engine(self):
        tl = Timeline()
        with pytest.raises(KeyError):
            tl.schedule(tl.create_stream(), "tensor_core", 1.0)

    def test_device_time(self):
        tl = Timeline()
        s = tl.create_stream()
        tl.schedule(s, COMPUTE, 1.0)
        tl.schedule(s, COPY_D2H, 3.0)
        assert tl.device_time() == pytest.approx(4.0)

    def test_advance_to_is_monotone(self):
        tl = Timeline()
        tl.schedule(tl.create_stream(), COMPUTE, 5.0)
        tl.advance_to(2.0)  # must not rewind
        assert tl.engines[COMPUTE] == pytest.approx(5.0)


class TestBarrier:
    def test_barrier_aligns_devices(self):
        t1, t2 = Timeline(), Timeline()
        t1.schedule(t1.create_stream(), COMPUTE, 3.0)
        t2.schedule(t2.create_stream(), COMPUTE, 1.0)
        t = barrier([t1, t2])
        assert t == pytest.approx(3.0)
        assert t2.device_time() == pytest.approx(3.0)

    def test_barrier_empty(self):
        with pytest.raises(ValueError):
            barrier([])


class TestPipelineOverlap:
    def test_double_buffering_saves_time(self):
        """The Section 5.1 pipeline: copy(m+1) under compute(m)."""

        def run(overlap: bool) -> float:
            tl = Timeline()
            streams = (
                [tl.create_stream(), tl.create_stream()]
                if overlap
                else [tl.create_stream()]
            )
            for m in range(4):
                s = streams[m % len(streams)]
                tl.schedule(s, COPY_H2D, 1.0)  # chunk transfer
                tl.schedule(s, COMPUTE, 2.0)  # sampling
            return tl.device_time()

        serial = run(overlap=False)
        pipelined = run(overlap=True)
        assert serial == pytest.approx(12.0)
        # copies hide under compute except the first: 1 + 4*2 = 9
        assert pipelined == pytest.approx(9.0)
        assert pipelined < serial
