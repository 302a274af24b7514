"""Tests for the experiment harness (fast, small configurations)."""

import pytest

from repro.config import RLConfig, SSDConfig
from repro.core.actionspace import ActionSpace
from repro.core.monitor import VssdMonitor
from repro.faults import monitor_dropout
from repro.harness import Experiment, VssdPlan, plans_for_pair
from repro.rl import PolicyValueNet


@pytest.fixture
def fast_config():
    """Small device so harness tests run in a couple of seconds."""
    return SSDConfig(
        num_channels=4,
        chips_per_channel=2,
        blocks_per_chip=16,
        pages_per_block=32,
        min_superblock_blocks=4,
    )


def test_plans_for_pair():
    plans = plans_for_pair("vdi-web", "terasort")
    assert [p.workload for p in plans] == ["vdi-web", "terasort"]
    assert plans[0].category == "latency"
    assert plans[1].category == "bandwidth"


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        Experiment([VssdPlan("ycsb"), VssdPlan("ycsb")], "hardware")


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        Experiment([VssdPlan("ycsb")], "warp-drive")


def test_hardware_allocation_equal_split(fast_config):
    exp = Experiment(plans_for_pair("ycsb", "mlprep"), "hardware", ssd_config=fast_config)
    exp.build()
    a = exp.virt.vssd_by_name("ycsb")
    b = exp.virt.vssd_by_name("mlprep")
    assert a.num_channels == b.num_channels == 2
    assert not set(a.channel_ids) & set(b.channel_ids)


def test_software_allocation_shares_all_channels(fast_config):
    exp = Experiment(plans_for_pair("ycsb", "mlprep"), "software", ssd_config=fast_config)
    exp.build()
    a = exp.virt.vssd_by_name("ycsb")
    assert a.channel_ids == [0, 1, 2, 3]
    assert a.isolation == "software"


def test_explicit_channel_counts(fast_config):
    plans = [VssdPlan("ycsb", n_channels=1), VssdPlan("mlprep", n_channels=3)]
    exp = Experiment(plans, "hardware", ssd_config=fast_config)
    exp.build()
    assert exp.virt.vssd_by_name("mlprep").num_channels == 3


def test_warmup_consumes_blocks(fast_config):
    exp = Experiment(plans_for_pair("ycsb", "mlprep"), "hardware", ssd_config=fast_config)
    exp.build()
    for name in ("ycsb", "mlprep"):
        vssd = exp.virt.vssd_by_name(name)
        # Section 4.1: at least 50% of free blocks consumed before runs.
        assert vssd.ftl.free_fraction() <= 0.5


def test_run_produces_results(fast_config):
    exp = Experiment(plans_for_pair("ycsb", "mlprep"), "hardware", ssd_config=fast_config)
    result = exp.run(duration_s=2.0, measure_after_s=0.5)
    assert set(result.vssds) == {"ycsb", "mlprep"}
    assert result.vssd("ycsb").completed > 0
    assert result.vssd("mlprep").mean_bw_mbps > 0
    assert len(result.util_series) >= 1


def test_mixed_isolation_allocation(fast_config):
    plans = [
        VssdPlan("ycsb", n_channels=2, isolation="hardware"),
        VssdPlan("mlprep", isolation="software"),
        VssdPlan("terasort", name="terasort2", isolation="software"),
    ]
    exp = Experiment(plans, "mixed", ssd_config=fast_config)
    exp.build()
    assert exp.virt.vssd_by_name("ycsb").channel_ids == [0, 1]
    assert exp.virt.vssd_by_name("mlprep").channel_ids == [2, 3]
    assert exp.virt.vssd_by_name("terasort2").channel_ids == [2, 3]


def test_mixed_requires_explicit_hw_channels(fast_config):
    plans = [VssdPlan("ycsb", isolation="hardware"), VssdPlan("mlprep", isolation="software")]
    with pytest.raises(ValueError):
        Experiment(plans, "mixed", ssd_config=fast_config).build()


def test_workload_switch(fast_config):
    exp = Experiment(plans_for_pair("ycsb", "mlprep"), "hardware", ssd_config=fast_config)
    exp.build()
    exp.schedule_workload_switch("ycsb", "vdi-web", at_s=1.0)
    result = exp.run(duration_s=2.0, measure_after_s=0.2)
    assert exp.drivers["ycsb"].spec.name == "vdi-web"
    assert result.vssd("ycsb").completed > 0


def test_reset_measurement(fast_config):
    exp = Experiment(plans_for_pair("ycsb", "mlprep"), "hardware", ssd_config=fast_config)
    exp.build()
    exp.reset_measurement_at(1.5)
    result = exp.run(duration_s=2.0, measure_after_s=0.2)
    assert result.measure_start_s == pytest.approx(1.5)


def test_fleetio_agents_read_the_one_monitor_per_vssd(fast_config):
    """Each vSSD has one monitor callback, which its agent reads.  A
    dropout blinds the agent's windows (``completed == 0``) while the
    run-scoped records keep counting every completion."""
    rl = RLConfig(decision_interval_s=0.25, batch_size=8)
    space = ActionSpace(fast_config.channel_write_bandwidth_mbps)
    exp = Experiment(
        plans_for_pair("ycsb", "terasort"),
        "fleetio",
        ssd_config=fast_config,
        rl_config=rl,
        pretrained_net=PolicyValueNet(rl.state_dim, space.num_actions, (8, 8)),
        fleetio_kwargs={"unified_alpha_only": True},
        faults=[monitor_dropout("ycsb", start_s=1.0, duration_s=1.0)],
    )
    exp.build()
    monitor_callbacks = [
        (vssd_id, callback.__self__)
        for vssd_id, callback in exp.virt.dispatcher._completion_callbacks
        if isinstance(getattr(callback, "__self__", None), VssdMonitor)
    ]
    assert monitor_callbacks == [
        (monitor.vssd.vssd_id, monitor) for monitor in exp.monitors.values()
    ]
    assert list(exp.controller.monitors.values()) == list(exp.monitors.values())

    exp.run(3.0, 0.5)
    monitor = exp.monitors["ycsb"]
    windows = [entry["stats"][monitor.vssd.vssd_id] for entry in exp.controller.window_log]
    blind = [w for w in windows if 1.0 <= w.window_start_s and w.window_end_s <= 2.0]
    seeing = [w for w in windows if w.window_end_s <= 1.0 or w.window_start_s >= 2.0]
    assert len(blind) == 4 and all(w.completed == 0 for w in blind)
    assert all(w.completed > 0 for w in seeing)
    assert monitor.dropped_completions > 0
    assert monitor.dropped_completions == sum(
        1.0 <= t < 2.0 for t in monitor.completion_times_s
    )
    exp.close()
