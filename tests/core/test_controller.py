"""Tests for the FleetIO decision-loop controller."""

import numpy as np
import pytest

from repro.config import RLConfig
from repro.core.actionspace import ActionSpace
from repro.core.controller import FleetIoController
from repro.core.monitor import VssdMonitor
from repro.core.reward import multi_agent_rewards, single_agent_reward
from repro.faults.guardrails import Guardrails
from repro.rl import PolicyValueNet
from repro.sched import IoRequest
from repro.virt import StorageVirtualizer


def _monitored(virt, vssd):
    """The vSSD's one monitor, wired to its completions as the harness does."""
    monitor = VssdMonitor(vssd)
    virt.dispatcher.add_completion_callback(monitor.on_complete, vssd_id=vssd.vssd_id)
    return monitor


@pytest.fixture
def world(small_config, tiny_rl_config):
    virt = StorageVirtualizer(config=small_config)
    space = ActionSpace(small_config.channel_write_bandwidth_mbps)
    net = PolicyValueNet(tiny_rl_config.state_dim, space.num_actions, (8, 8))
    controller = FleetIoController(
        virt, net, rl_config=tiny_rl_config, explore=True, finetune=False
    )
    a = virt.create_vssd("a", [0, 1], slo_latency_us=2000.0)
    b = virt.create_vssd("b", [2, 3], slo_latency_us=50_000.0)
    controller.register_vssd(a, _monitored(virt, a))
    controller.register_vssd(b, _monitored(virt, b))
    return virt, controller, a, b


def _traffic(virt, vssd, n=10):
    for i in range(n):
        virt.dispatcher.submit(
            IoRequest(vssd.vssd_id, "write", i, 1, virt.config.page_size, virt.sim.now)
        )


def test_window_tick_produces_actions(world):
    virt, controller, a, b = world
    controller.start()
    _traffic(virt, a)
    _traffic(virt, b)
    virt.sim.run_until_seconds(0.35)  # three 0.1s windows
    assert controller._window_index >= 3
    assert len(controller.agents[a.vssd_id].actions_taken) >= 3
    assert controller.virt.admission.stats.submitted >= 6


def test_rewards_credited_after_first_window(world):
    virt, controller, a, b = world
    controller.start()
    _traffic(virt, a)
    virt.sim.run_until_seconds(0.25)
    assert len(controller.agents[a.vssd_id].rewards_seen) >= 1


def test_guaranteed_bandwidth_hardware(world):
    virt, controller, a, _b = world
    expected = 2 * virt.config.channel_write_bandwidth_mbps
    assert controller.guaranteed_bandwidth(a.vssd_id) == pytest.approx(expected)


def test_guaranteed_bandwidth_software_share(small_config, tiny_rl_config):
    virt = StorageVirtualizer(config=small_config)
    half = small_config.blocks_per_channel // 2
    a = virt.create_vssd("a", [0, 1, 2, 3], isolation="software", blocks_per_channel=half)
    space = ActionSpace(small_config.channel_write_bandwidth_mbps)
    net = PolicyValueNet(tiny_rl_config.state_dim, space.num_actions, (8, 8))
    controller = FleetIoController(virt, net, rl_config=tiny_rl_config)
    controller.register_vssd(a, _monitored(virt, a))
    expected = 4 * 0.5 * small_config.channel_write_bandwidth_mbps
    assert controller.guaranteed_bandwidth(a.vssd_id) == pytest.approx(expected)


def test_each_agent_gets_cloned_net(world):
    _virt, controller, a, b = world
    net_a = controller.agents[a.vssd_id].net
    net_b = controller.agents[b.vssd_id].net
    assert net_a is not net_b
    net_a.params["W0"][0, 0] += 99.0
    assert net_b.params["W0"][0, 0] != net_a.params["W0"][0, 0]


def test_classifier_assigns_cluster_and_alpha(small_config, tiny_rl_config):
    from repro.harness.pretrained import get_classifier

    virt = StorageVirtualizer(config=small_config)
    space = ActionSpace(small_config.channel_write_bandwidth_mbps)
    net = PolicyValueNet(tiny_rl_config.state_dim, space.num_actions, (8, 8))
    controller = FleetIoController(
        virt, net, rl_config=tiny_rl_config, classifier=get_classifier(),
        explore=True, finetune=False,
    )
    a = virt.create_vssd("a", [0, 1], slo_latency_us=2000.0)
    monitor = _monitored(virt, a)
    agent = controller.register_vssd(a, monitor)
    # Feed a YCSB-like trace through the monitor.
    rng = np.random.default_rng(0)
    t = 0.0
    for _ in range(controller.CLASSIFY_MIN_REQUESTS):
        t += 300.0
        monitor.recent_trace.append((t, 1, int(rng.integers(0, 50)), 1))
    controller._classify_workloads()
    assert agent.cluster is not None


def test_unified_alpha_only_skips_classification(world):
    virt, controller, a, _b = world
    controller.unified_alpha_only = True
    controller.classifier = object()  # would crash if used
    controller._classify_workloads()
    assert controller.agents[a.vssd_id].cluster is None


def test_stop_halts_loop(world):
    virt, controller, a, b = world
    controller.start()
    virt.sim.run_until_seconds(0.15)
    controller.stop()
    windows = controller._window_index
    virt.sim.run_until_seconds(0.6)
    assert controller._window_index == windows


def test_window_log_records(world):
    virt, controller, a, b = world
    controller.start()
    virt.sim.run_until_seconds(0.25)
    assert controller.window_log
    entry = controller.window_log[0]
    assert set(entry["actions"]) == {a.vssd_id, b.vssd_id}


@pytest.mark.parametrize("beta", [0.6, 1.0])
def test_every_agent_receives_the_eq2_blend(small_config, beta):
    """Eq. 2: each agent is credited ``multi_agent_rewards(singles, beta)``
    at the configured ``beta``, with the singles (Eq. 1) recomputed from
    the same window's sanitized stats (``window_log``)."""
    virt = StorageVirtualizer(config=small_config)
    space = ActionSpace(small_config.channel_write_bandwidth_mbps)
    rl_config = RLConfig(decision_interval_s=0.1, batch_size=8, beta=beta)
    net = PolicyValueNet(rl_config.state_dim, space.num_actions, (8, 8))
    controller = FleetIoController(
        virt, net, rl_config=rl_config, explore=True, finetune=False,
        guardrails=Guardrails(),
    )
    # Unequal load and SLOs, so the agents' own rewards differ.
    load = {}
    for name, channels, slo_us, pages in (
        ("a", [0], 300.0, 1), ("b", [1], 50_000.0, 4), ("c", [2, 3], 2_000.0, 2),
    ):
        vssd = virt.create_vssd(name, channels, slo_latency_us=slo_us)
        controller.register_vssd(vssd, _monitored(virt, vssd))
        load[vssd.vssd_id] = pages
    credited = []
    for vssd_id, agent in controller.agents.items():
        def observe(reward, vssd_id=vssd_id, agent=agent, inner=agent.observe_reward):
            credited.append((
                controller._window_index, vssd_id, reward,
                agent.alpha, controller.guaranteed_bandwidth(vssd_id),
            ))
            inner(reward)
        agent.observe_reward = observe

    def tick(lpn=0):
        for vssd_id, pages in load.items():
            for _ in range(pages):
                virt.dispatcher.submit(IoRequest(
                    vssd_id, "write", lpn % 32, 1, virt.config.page_size, virt.sim.now,
                ))
                lpn += 1
        virt.sim.schedule(5_000.0, tick, lpn)

    controller.start()
    tick()
    virt.sim.run_until_seconds(0.65)
    windows = controller._window_index
    assert windows >= 6
    assert len(credited) == windows * len(load)
    blended_away = 0
    for window in range(windows):
        stats = controller.window_log[window]["stats"]
        rows = [row for row in credited if row[0] == window]
        singles = {
            vssd_id: single_agent_reward(
                stats[vssd_id].avg_bw_mbps,
                stats[vssd_id].slo_violation_frac,
                guaranteed_bw_mbps=guaranteed,
                alpha=alpha,
                slo_violation_guarantee=rl_config.slo_violation_guarantee,
            )
            for _window, vssd_id, _reward, alpha, guaranteed in rows
        }
        expected = multi_agent_rewards(singles, beta)
        assert {vssd_id: reward for _w, vssd_id, reward, _a, _g in rows} == expected
        blended_away += sum(expected[v] != singles[v] for v in singles)
    # Only a beta below 1 moves a reward off the agent's own.
    assert (blended_away > 0) == (beta < 1.0)
