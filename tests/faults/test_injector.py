"""Tests for the declarative fault injector."""

import math

import pytest

from repro.core.monitor import VssdMonitor
from repro.faults import (
    FaultInjector,
    FaultSpec,
    agent_corruption,
    channel_outage,
    channel_slowdown,
    gc_storm,
    latency_spike,
    monitor_dropout,
)
from repro.sched import IoRequest
from repro.virt import StorageVirtualizer


@pytest.fixture
def virt(small_config):
    virt = StorageVirtualizer(config=small_config)
    virt.create_vssd("a", [0, 1], slo_latency_us=2000.0)
    virt.create_vssd("b", [2, 3], slo_latency_us=2000.0)
    return virt


def monitor_map(virt):
    monitors = {}
    for vssd in virt.vssds.values():
        monitor = VssdMonitor(vssd)
        virt.dispatcher.add_completion_callback(monitor.on_complete, vssd_id=vssd.vssd_id)
        monitors[vssd.name] = monitor
    return monitors


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        FaultSpec("solar_flare", 1.0, 1.0, channel=0)


def test_channel_fault_needs_channel():
    with pytest.raises(ValueError):
        FaultSpec("channel_slowdown", 1.0, 1.0, factor=2.0)


def test_vssd_fault_needs_vssd():
    with pytest.raises(ValueError):
        FaultSpec("agent_corruption", 1.0, 1.0)


def test_nonpositive_duration_rejected():
    with pytest.raises(ValueError):
        channel_slowdown(0, 2.0, start_s=1.0, duration_s=0.0)


def test_nonpositive_slowdown_rejected():
    with pytest.raises(ValueError):
        channel_slowdown(0, 0.0, start_s=1.0, duration_s=1.0)


def test_arm_in_the_past_rejected(virt):
    virt.sim.run_until_seconds(5.0)
    injector = FaultInjector(virt)
    with pytest.raises(ValueError):
        injector.arm([channel_slowdown(0, 2.0, start_s=1.0, duration_s=1.0)])


def test_arm_unknown_channel_rejected(virt):
    injector = FaultInjector(virt)
    with pytest.raises(ValueError):
        injector.arm([channel_slowdown(99, 2.0, start_s=1.0, duration_s=1.0)])


def test_arm_monitor_fault_without_monitor_rejected(virt):
    injector = FaultInjector(virt)
    with pytest.raises(KeyError):
        injector.arm([agent_corruption("a", 1.0, 1.0)])


# ----------------------------------------------------------------------
# Channel faults
# ----------------------------------------------------------------------
def test_slowdown_applies_and_clears_on_schedule(virt):
    injector = FaultInjector(virt)
    injector.arm([channel_slowdown(0, 4.0, start_s=1.0, duration_s=2.0)])
    channel = virt.ssd.channels[0]
    assert not channel.degraded
    virt.sim.run_until_seconds(1.5)
    assert channel.fault_slowdown == 4.0
    assert channel.degraded
    assert virt.ssd.degraded_channels() == [0]
    virt.sim.run_until_seconds(3.5)
    assert channel.fault_slowdown == 1.0
    assert not channel.degraded
    assert virt.ssd.degraded_channels() == []


def test_overlapping_faults_compose(virt):
    injector = FaultInjector(virt)
    injector.arm(
        [
            channel_slowdown(0, 2.0, start_s=1.0, duration_s=4.0),
            channel_slowdown(0, 3.0, start_s=2.0, duration_s=1.0),
            latency_spike(0, 500.0, start_s=2.0, duration_s=1.0),
        ]
    )
    channel = virt.ssd.channels[0]
    virt.sim.run_until_seconds(2.5)
    assert channel.fault_slowdown == 6.0  # factors multiply
    assert channel.fault_extra_latency_us == 500.0
    virt.sim.run_until_seconds(3.5)
    assert channel.fault_slowdown == 2.0  # inner fault cleared, outer holds
    assert channel.fault_extra_latency_us == 0.0
    virt.sim.run_until_seconds(5.5)
    assert not channel.degraded


def test_outage_refuses_capacity(virt):
    injector = FaultInjector(virt)
    injector.arm([channel_outage(0, start_s=1.0, duration_s=1.0)])
    channel = virt.ssd.channels[0]
    virt.sim.run_until_seconds(1.5)
    assert channel.offline
    assert not channel.has_capacity()
    virt.sim.run_until_seconds(2.5)
    assert channel.has_capacity()


def test_slowdown_stretches_service_latency(virt):
    monitors = monitor_map(virt)
    injector = FaultInjector(virt, monitors=monitors)
    injector.arm([channel_slowdown(0, 8.0, start_s=1.0, duration_s=2.0)])
    vssd = virt.vssd_by_name("a")
    size = virt.config.page_size

    def submit_reads(base_lpn):
        for i in range(50):
            virt.dispatcher.submit(
                IoRequest(vssd.vssd_id, "read", base_lpn + i, 1, size, virt.sim.now)
            )

    # Warm a few LPNs so reads hit mapped pages.
    vssd.ftl.warm_fill(range(200))
    submit_reads(0)
    virt.sim.run_until_seconds(1.0)
    healthy = monitors["a"].snapshot_window(1.0)
    submit_reads(0)
    virt.sim.run_until_seconds(2.0)
    faulted = monitors["a"].snapshot_window(2.0)
    assert faulted.avg_latency_us > 2.0 * healthy.avg_latency_us


# ----------------------------------------------------------------------
# GC storm
# ----------------------------------------------------------------------
def test_gc_storm_raises_and_restores_threshold(virt):
    injector = FaultInjector(virt)
    injector.arm([gc_storm("a", start_s=1.0, duration_s=1.0, threshold=0.9)])
    ftl = virt.vssd_by_name("a").ftl
    original = ftl.gc_threshold
    virt.sim.run_until_seconds(1.5)
    assert ftl.gc_threshold == 0.9
    virt.sim.run_until_seconds(2.5)
    assert ftl.gc_threshold == original


# ----------------------------------------------------------------------
# Monitor faults
# ----------------------------------------------------------------------
def test_monitor_dropout_drops_completions(virt):
    monitors = monitor_map(virt)
    injector = FaultInjector(virt, monitors=monitors)
    injector.arm([monitor_dropout("a", start_s=1.0, duration_s=1.0)])
    vssd = virt.vssd_by_name("a")
    vssd.ftl.warm_fill(range(100))
    virt.sim.run_until_seconds(1.5)
    assert monitors["a"].dropout
    for i in range(10):
        virt.dispatcher.submit(
            IoRequest(vssd.vssd_id, "read", i, 1, virt.config.page_size, virt.sim.now)
        )
    virt.sim.run_until_seconds(1.9)
    stats = monitors["a"].snapshot_window(1.9)
    assert stats.completed == 0
    assert monitors["a"].dropped_completions == 10
    virt.sim.run_until_seconds(2.5)
    assert not monitors["a"].dropout


def test_agent_corruption_nans_window_snapshots(virt):
    monitors = monitor_map(virt)
    injector = FaultInjector(virt, monitors=monitors)
    injector.arm([agent_corruption("a", start_s=1.0, duration_s=1.0)])
    virt.sim.run_until_seconds(1.5)
    stats = monitors["a"].snapshot_window(1.5)
    assert math.isnan(stats.avg_bw_mbps)
    assert math.isnan(stats.slo_violation_frac)
    virt.sim.run_until_seconds(2.5)
    clean = monitors["a"].snapshot_window(2.5)
    assert math.isfinite(clean.avg_bw_mbps)


def test_event_log_records_start_and_end(virt):
    injector = FaultInjector(virt)
    injector.arm([channel_slowdown(1, 3.0, start_s=1.0, duration_s=1.0)])
    virt.sim.run_until_seconds(3.0)
    phases = [(e.kind, e.phase, e.target) for e in injector.event_log]
    assert phases == [
        ("channel_slowdown", "start", "channel:1"),
        ("channel_slowdown", "end", "channel:1"),
    ]
    assert injector.event_log[0].time_s == pytest.approx(1.0)
    assert injector.event_log[1].time_s == pytest.approx(2.0)
