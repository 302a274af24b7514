"""Tests for the per-vSSD monitor."""

import pytest

from repro.core.monitor import VssdMonitor
from repro.sched import IoRequest
from repro.virt import StorageVirtualizer


@pytest.fixture
def world(small_config):
    virt = StorageVirtualizer(config=small_config)
    vssd = virt.create_vssd("v", [0, 1], slo_latency_us=1000.0)
    monitor = VssdMonitor(vssd)
    virt.dispatcher.add_completion_callback(monitor.on_complete, vssd_id=vssd.vssd_id)
    return virt, vssd, monitor


def _run_io(virt, vssd, n=20, op="write", pages=1):
    for i in range(n):
        virt.dispatcher.submit(
            IoRequest(vssd.vssd_id, op, i, pages, virt.config.page_size, virt.sim.now)
        )
    virt.sim.run()


def test_window_stats_counts(world):
    virt, vssd, monitor = world
    _run_io(virt, vssd, n=10, op="write")
    _run_io(virt, vssd, n=5, op="read")
    stats = monitor.snapshot_window(virt.sim.now_seconds)
    assert stats.completed == 15
    assert stats.reads == 5
    assert stats.writes == 10
    assert stats.rw_ratio == pytest.approx(5 / 15)


def test_window_bandwidth(world):
    virt, vssd, monitor = world
    _run_io(virt, vssd, n=8, pages=2)
    elapsed = virt.sim.now_seconds
    stats = monitor.snapshot_window(elapsed)
    expected = 8 * 2 * virt.config.page_size / (1024 * 1024) / elapsed
    assert stats.avg_bw_mbps == pytest.approx(expected)


def test_window_resets_counters(world):
    virt, vssd, monitor = world
    _run_io(virt, vssd, n=10)
    monitor.snapshot_window(virt.sim.now_seconds)
    stats = monitor.snapshot_window(virt.sim.now_seconds + 1.0)
    assert stats.completed == 0
    assert stats.avg_bw_mbps == 0.0


def test_slo_violations_tracked(world):
    virt, vssd, monitor = world
    monitor.slo_latency_us = 0.001  # everything violates
    _run_io(virt, vssd, n=10)
    stats = monitor.snapshot_window(virt.sim.now_seconds)
    assert stats.slo_violation_frac == 1.0
    assert monitor.overall_slo_violation_frac() == 1.0


def test_latency_percentiles(world):
    virt, vssd, monitor = world
    _run_io(virt, vssd, n=50)
    p50 = monitor.latency_percentile(50)
    p99 = monitor.latency_percentile(99)
    assert 0 < p50 <= p99


def test_measure_from_filters_early_requests(world):
    virt, vssd, monitor = world
    monitor.measure_from_s = 1e9  # far future: nothing recorded
    _run_io(virt, vssd, n=10)
    assert monitor.total_completed == 0
    # Window counters still see the traffic (RL states keep flowing).
    stats = monitor.snapshot_window(virt.sim.now_seconds)
    assert stats.completed == 10


def test_failed_requests_ignored(world):
    virt, vssd, monitor = world
    request = IoRequest(vssd.vssd_id, "write", 0, 1, virt.config.page_size, 0.0)
    request.failed = True
    request.complete_time = 1.0
    monitor.on_complete(request)
    assert monitor.total_completed == 0


def test_other_vssd_requests_never_reach_the_monitor(world):
    """The dispatcher routes a completion to its own tenant's callbacks
    only, so the monitor needs no vSSD check of its own."""
    virt, vssd, monitor = world
    other = virt.create_vssd("w", [2, 3])
    _run_io(virt, other, n=10)
    assert monitor.total_completed == 0
    _run_io(virt, vssd, n=3)
    assert monitor.total_completed == 3


def test_recent_trace_collected(world):
    virt, vssd, monitor = world
    _run_io(virt, vssd, n=10, op="read", pages=2)
    assert len(monitor.recent_trace) == 10
    _t, is_read, _lpn, pages = monitor.recent_trace[0]
    assert is_read == 1
    assert pages == 2


def test_avail_capacity_fraction(world):
    virt, vssd, monitor = world
    stats = monitor.snapshot_window(1.0)
    assert stats.avail_capacity_frac == pytest.approx(1.0)
    vssd.ftl.warm_fill(range(vssd.ftl.free_pages() // 2))
    stats = monitor.snapshot_window(2.0)
    assert stats.avail_capacity_frac == pytest.approx(0.5, abs=0.05)


def test_in_gc_flag_reflects_channels(world):
    virt, vssd, monitor = world
    virt.ssd.channels[0].occupy_for_gc(0, migrate_reads=1, erases=1)
    stats = monitor.snapshot_window(0.001)
    assert stats.in_gc is True
