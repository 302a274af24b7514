"""Seed-determinism regression: same seed, byte-identical telemetry.

The simulator, workload drivers, RL agents, and fault injector all draw
from seeded streams; two runs with identical inputs must replay exactly.
A drift here means some component picked up nondeterministic state
(dict ordering, wall-clock time, an unseeded RNG) and silently broke
reproducibility.
"""

from repro.config import RLConfig, SSDConfig
from repro.core.actionspace import ActionSpace
from repro.faults import slowdown_corruption_scenario
from repro.harness import Experiment, VssdPlan
from repro.harness.telemetry import events_to_csv, windows_to_csv
from repro.rl.nets import PolicyValueNet

FAST = SSDConfig(
    num_channels=4,
    chips_per_channel=2,
    blocks_per_chip=16,
    pages_per_block=32,
    min_superblock_blocks=4,
)


def _run(tmp_path, tag, with_faults=False):
    rl = RLConfig(decision_interval_s=0.5, batch_size=8)
    plans = [
        VssdPlan("ycsb", slo_latency_us=13085.0),
        VssdPlan("terasort", slo_latency_us=239516.0),
    ]
    space = ActionSpace(FAST.channel_write_bandwidth_mbps)
    net = PolicyValueNet(rl.state_dim, space.num_actions, (8, 8))
    faults = (
        slowdown_corruption_scenario(
            "ycsb",
            [0, 1],
            slowdown_factor=2.0,
            fault_start_s=1.5,
            fault_duration_s=1.0,
            corruption_start_s=1.5,
            corruption_duration_s=0.5,
        )
        if with_faults
        else None
    )
    exp = Experiment(
        plans,
        "fleetio",
        ssd_config=FAST,
        rl_config=rl,
        seed=7,
        pretrained_net=net,
        fleetio_kwargs={"unified_alpha_only": True},
        faults=faults,
        guardrails=with_faults,
    )
    result = exp.run(4.0, 1.0)
    histories = {
        plan.name: [
            entry["stats"][exp.virt.vssd_by_name(plan.name).vssd_id]
            for entry in exp.controller.window_log
        ]
        for plan in plans
    }
    windows = tmp_path / f"windows-{tag}.csv"
    windows_to_csv(histories, windows)
    events = tmp_path / f"events-{tag}.csv"
    events_to_csv(result.fault_events + result.guardrail_events, events)
    return windows.read_bytes(), events.read_bytes()


def test_same_seed_runs_are_byte_identical(tmp_path):
    first = _run(tmp_path, "one")
    second = _run(tmp_path, "two")
    assert first[0] == second[0]


def test_same_seed_fault_runs_are_byte_identical(tmp_path):
    first = _run(tmp_path, "fault-one", with_faults=True)
    second = _run(tmp_path, "fault-two", with_faults=True)
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert len(first[1].splitlines()) > 1  # fault events actually exported
