"""Tests for the analysis layer (roofline, metrics, reporting)."""

import pytest

from repro.analysis.metrics import (
    convergence_series,
    scaling_table,
    throughput_series,
    warmup_ratio,
)
from repro.analysis.reporting import render_series, render_sparkline, render_table
from repro.analysis.roofline import (
    average_intensity,
    is_memory_bound,
    table1_rows,
)
from repro.core.trainer import IterationRecord, mean_tokens_per_sec
from repro.gpusim.platform import (
    TITAN_X_MAXWELL,
    V100_VOLTA,
    XEON_E5_2690_V4,
)


def rec(i, dur, ll=None, tps=None):
    return IterationRecord(
        iteration=i,
        sim_seconds=dur,
        cumulative_seconds=(i + 1) * dur,
        tokens_per_sec=tps if tps is not None else 1000.0 / dur,
        log_likelihood_per_token=ll,
        mean_kd=10.0,
        p1_fraction=0.5,
        changed_fraction=0.5,
    )


class TestRoofline:
    def test_table1_values_exact(self):
        """The four published Flops/Byte values, to 2 decimals."""
        rows = table1_rows()
        got = {r.step: round(r.flops_per_byte, 2) for r in rows}
        assert got == {
            "Compute S": 0.33,
            "Compute Q": 0.25,
            "Sampling from p1(k)": 0.30,  # published as 0.30
            "Sampling from p2(k)": 0.19,
        }

    def test_average_is_027(self):
        assert average_intensity() == pytest.approx(0.27, abs=0.008)

    def test_ratios_scale_invariant(self):
        a = table1_rows(num_topics=64, kd=4)
        b = table1_rows(num_topics=4096, kd=512)
        for ra, rb in zip(a, b):
            assert ra.flops_per_byte == pytest.approx(rb.flops_per_byte)

    def test_memory_bound_everywhere(self):
        """Section 3.1's conclusion for every evaluated processor."""
        for proc in (XEON_E5_2690_V4, TITAN_X_MAXWELL, V100_VOLTA):
            assert is_memory_bound(proc)

    def test_invalid_rows(self):
        with pytest.raises(ValueError):
            table1_rows(num_topics=0)


class TestMetrics:
    def test_throughput_series(self):
        h = [rec(0, 1.0), rec(1, 0.5)]
        s = throughput_series(h)
        assert list(s) == [1000.0, 2000.0]

    def test_empty_history(self):
        with pytest.raises(ValueError):
            throughput_series([])

    def test_convergence_series_skips_missing(self):
        h = [rec(0, 1.0), rec(1, 1.0, ll=-8.0), rec(2, 1.0), rec(3, 1.0, ll=-7.0)]
        t, ll = convergence_series(h)
        assert list(ll) == [-8.0, -7.0]
        assert list(t) == [2.0, 4.0]

    def test_convergence_series_all_missing(self):
        with pytest.raises(ValueError):
            convergence_series([rec(0, 1.0)])

    def test_average_throughput_first_n(self):
        h = [rec(i, 1.0, tps=100.0) for i in range(5)] + [rec(5, 1.0, tps=999.0)]
        assert mean_tokens_per_sec(h, first_n=5) == pytest.approx(100.0)
        assert mean_tokens_per_sec(h) == pytest.approx((500.0 + 999.0) / 6)
        with pytest.raises(ValueError):
            mean_tokens_per_sec([])

    def test_warmup_ratio(self):
        h = [rec(i, 1.0, tps=100.0) for i in range(5)]
        h += [rec(i + 5, 1.0, tps=200.0) for i in range(5)]
        assert warmup_ratio(h, head=5) == pytest.approx(2.0)

    def test_warmup_needs_enough_points(self):
        with pytest.raises(ValueError):
            warmup_ratio([rec(0, 1.0)], head=5)

    def test_scaling_table(self):
        pts = scaling_table({1: 100.0, 2: 190.0, 4: 300.0})
        assert [p.num_gpus for p in pts] == [1, 2, 4]
        assert pts[1].speedup == pytest.approx(1.9)
        assert pts[2].efficiency == pytest.approx(0.75)

    def test_scaling_requires_baseline(self):
        with pytest.raises(ValueError):
            scaling_table({2: 10.0})


class TestReporting:
    def test_render_table_alignment(self):
        out = render_table(["col", "x"], [["a", 1], ["bb", 22]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("col")

    def test_render_table_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [["x", "y"]])

    def test_render_table_empty_headers(self):
        with pytest.raises(ValueError):
            render_table([], [])

    def test_render_series_downsamples(self):
        x = list(range(100))
        y = [float(i) for i in range(100)]
        out = render_series(x, y, max_points=10)
        assert len(out.splitlines()) <= 13

    def test_render_series_mismatch(self):
        with pytest.raises(ValueError):
            render_series([1], [1, 2])

    def test_sparkline(self):
        s = render_sparkline([0, 1, 2, 3])
        assert len(s) == 4
        assert s[0] == "▁" and s[-1] == "█"

    def test_sparkline_constant(self):
        assert render_sparkline([5, 5, 5]) == "▁▁▁"

    def test_sparkline_empty(self):
        with pytest.raises(ValueError):
            render_sparkline([])

    def test_float_formatting(self):
        out = render_table(["v"], [[0.00001], [123456.0], [1.5]])
        assert "1e-05" in out
        assert "1.23e+05" in out or "123456" in out
