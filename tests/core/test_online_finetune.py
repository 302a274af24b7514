"""Online fine-tuning: agents keep learning at deployment (Section 4.7).

The paper fine-tunes every 10 windows.  These tests drive enough windows
through the controller on a small DES that at least one PPO update fires,
and verify it changes the agent's own network copy only.
"""

import numpy as np
import pytest

from repro.config import RLConfig, SSDConfig
from repro.core.actionspace import ActionSpace
from repro.core.controller import FleetIoController
from repro.core.monitor import VssdMonitor
from repro.rl import PolicyValueNet
from repro.sched import IoRequest
from repro.virt import StorageVirtualizer


@pytest.fixture
def world():
    config = SSDConfig(
        num_channels=4, chips_per_channel=2, blocks_per_chip=8,
        pages_per_block=16, min_superblock_blocks=2,
    )
    # Small batch so the 10-window fine-tune interval has enough samples.
    rl = RLConfig(decision_interval_s=0.05, batch_size=8)
    virt = StorageVirtualizer(config=config)
    space = ActionSpace(config.channel_write_bandwidth_mbps)
    net = PolicyValueNet(rl.state_dim, space.num_actions, (8, 8))
    controller = FleetIoController(
        virt, net, rl_config=rl, explore=True, finetune=True, seed=1
    )
    a = virt.create_vssd("a", [0, 1], slo_latency_us=2000.0)
    b = virt.create_vssd("b", [2, 3], slo_latency_us=2000.0)
    agents = []
    for vssd in (a, b):
        monitor = VssdMonitor(vssd)
        virt.dispatcher.add_completion_callback(monitor.on_complete, vssd_id=vssd.vssd_id)
        agents.append(controller.register_vssd(vssd, monitor))
    agent_a, agent_b = agents
    return config, virt, controller, net, agent_a, agent_b


def _traffic(virt, vssd_id, config, n=30):
    for i in range(n):
        virt.dispatcher.submit(
            IoRequest(vssd_id, "write", i, 1, config.page_size, virt.sim.now)
        )


def test_finetune_updates_agent_net(world):
    config, virt, controller, net, agent_a, agent_b = world
    before_a = agent_a.net.get_flat_params().copy()
    before_shared = net.get_flat_params().copy()
    controller.start()
    for window in range(24):
        _traffic(virt, agent_a.vssd.vssd_id, config)
        _traffic(virt, agent_b.vssd.vssd_id, config)
        virt.sim.run_until_seconds(virt.sim.now_seconds + 0.05)
    # At least one periodic PPO update ran...
    assert agent_a.trainer.optimizer.steps > 0
    # ...and moved the agent's own clone, not the shared pretrained net.
    assert not np.allclose(agent_a.net.get_flat_params(), before_a)
    assert np.allclose(net.get_flat_params(), before_shared)


def test_agents_finetune_independently(world):
    config, virt, controller, _net, agent_a, agent_b = world
    controller.start()
    for window in range(24):
        _traffic(virt, agent_a.vssd.vssd_id, config)
        _traffic(virt, agent_b.vssd.vssd_id, config)
        virt.sim.run_until_seconds(virt.sim.now_seconds + 0.05)
    # Different trajectories -> diverged parameter vectors.
    assert not np.allclose(
        agent_a.net.get_flat_params(), agent_b.net.get_flat_params()
    )


def test_finetune_disabled_keeps_params_frozen(world):
    config, virt, controller, _net, agent_a, _agent_b = world
    agent_a.finetune = False
    before = agent_a.net.get_flat_params().copy()
    controller.start()
    for window in range(24):
        _traffic(virt, agent_a.vssd.vssd_id, config)
        virt.sim.run_until_seconds(virt.sim.now_seconds + 0.05)
    assert np.allclose(agent_a.net.get_flat_params(), before)
