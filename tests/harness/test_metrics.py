"""Tests for experiment metrics."""

import numpy as np
import pytest

from repro.harness.metrics import ExperimentResult, VssdResult, bandwidth_series


def _vssd_result(name="v", category="latency", bw=100.0, p99=1000.0):
    return VssdResult(
        name=name,
        workload=name,
        category=category,
        completed=1000,
        mean_bw_mbps=bw,
        mean_latency_us=500.0,
        p95_latency_us=900.0,
        p99_latency_us=p99,
        p999_latency_us=2000.0,
        slo_latency_us=1000.0,
        slo_violation_frac=0.01,
        write_amplification=1.1,
        gc_runs=5,
    )


def test_bandwidth_series_bins():
    times = [0.5, 0.6, 1.5, 2.5]
    sizes = [1 << 20] * 4
    series = bandwidth_series(times, sizes, start_s=0.0, end_s=3.0, interval_s=1.0)
    assert series.shape == (3,)
    assert series[0] == pytest.approx(2.0)
    assert series[1] == pytest.approx(1.0)


def test_bandwidth_series_ignores_outside_window():
    series = bandwidth_series([5.0], [1 << 20], start_s=0.0, end_s=3.0)
    assert series.sum() == 0.0


def test_bandwidth_series_empty_window():
    assert len(bandwidth_series([], [], 1.0, 1.0)) == 0


def test_utilization_metrics():
    result = ExperimentResult(
        policy="x", duration_s=10.0, measure_start_s=0.0,
        total_bandwidth_mbps=1000.0,
    )
    result.util_series = np.array([100.0, 200.0, 300.0, 400.0])
    assert result.avg_utilization == pytest.approx(0.25)
    assert result.p95_utilization == pytest.approx(0.385, abs=0.01)


def test_utilization_zero_when_empty():
    result = ExperimentResult(policy="x", duration_s=1.0, measure_start_s=0.0)
    assert result.avg_utilization == 0.0
    assert result.p95_utilization == 0.0


def test_by_category_and_means():
    result = ExperimentResult(
        policy="x", duration_s=1.0, measure_start_s=0.0, total_bandwidth_mbps=1.0
    )
    result.vssds["lat"] = _vssd_result("lat", "latency", bw=50.0, p99=800.0)
    result.vssds["bw1"] = _vssd_result("bw1", "bandwidth", bw=200.0)
    result.vssds["bw2"] = _vssd_result("bw2", "bandwidth", bw=300.0)
    assert len(result.by_category("bandwidth")) == 2
    assert result.mean_bw_of("bandwidth") == pytest.approx(250.0)
    assert result.mean_of_p99s("latency") == pytest.approx(800.0)
    assert result.mean_bw_of("gpu") == 0.0


def test_mean_of_p99s_empty_category_is_none():
    """An empty series has no percentile — None, not a silent 0.0."""
    result = ExperimentResult(
        policy="x", duration_s=1.0, measure_start_s=0.0, total_bandwidth_mbps=1.0
    )
    assert result.mean_of_p99s("latency") is None
    result.vssds["lat"] = _vssd_result("lat", "latency", p99=None)
    assert result.mean_of_p99s("latency") is None


def test_summary_row_format():
    row = _vssd_result().summary_row()
    assert "bw=" in row and "p99=" in row and "slo_vio=" in row


def test_summary_row_handles_missing_percentiles():
    row = _vssd_result(p99=None).summary_row()
    assert "n/a" in row
