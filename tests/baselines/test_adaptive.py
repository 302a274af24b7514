"""Tests for the Adaptive (eZNS-style) baseline manager."""

import pytest

from repro.core.monitor import VssdMonitor
from repro.baselines import AdaptiveManager
from repro.sched import IoRequest
from repro.virt import StorageVirtualizer


@pytest.fixture
def world(small_config):
    virt = StorageVirtualizer(config=small_config)
    manager = AdaptiveManager(virt, window_s=0.1)
    vssds = {}
    for name, channels in (("busy", [0, 1]), ("idle", [2, 3])):
        vssd = virt.create_vssd(name, channels)
        monitor = VssdMonitor(vssd)
        virt.dispatcher.add_completion_callback(monitor.on_complete, vssd_id=vssd.vssd_id)
        manager.register_vssd(vssd, monitor)
        vssds[name] = vssd
    return virt, manager, vssds


def _drive(virt, vssd, n):
    for i in range(n):
        virt.dispatcher.submit(
            IoRequest(vssd.vssd_id, "write", i, 2, virt.config.page_size, virt.sim.now)
        )


def test_busy_tenant_harvests_idle_capacity(world):
    virt, manager, vssds = world
    manager.start()
    busy = vssds["busy"]
    for _round in range(6):
        _drive(virt, busy, 60)
        virt.sim.run_until_seconds(virt.sim.now_seconds + 0.1)
    virt.sim.run(max_events=100_000)
    assert busy.harvested_channel_count() >= 1
    assert manager.reallocations > 0


def test_idle_tenant_offers(world):
    virt, manager, vssds = world
    manager.start()
    _drive(virt, vssds["busy"], 100)
    virt.sim.run_until_seconds(0.5)
    idle = vssds["idle"]
    assert idle.offered_channel_count() >= 1


def test_no_traffic_no_thrash(world):
    virt, manager, vssds = world
    manager.start()
    virt.sim.run_until_seconds(0.5)
    # With zero bandwidth everywhere, targets are equal shares: no
    # reallocation should be needed beyond possibly the first window.
    assert vssds["busy"].harvested_channel_count() == 0


def test_demand_floor_prevents_starvation(world):
    virt, manager, vssds = world
    manager.start()
    # Both tenants active: the lighter one must keep >= its demand floor.
    for _round in range(5):
        _drive(virt, vssds["busy"], 80)
        _drive(virt, vssds["idle"], 10)
        virt.sim.run_until_seconds(virt.sim.now_seconds + 0.1)
    idle = vssds["idle"]
    lent_in_use = sum(g.n_chls for g in idle.harvestable_gsbs if g.in_use)
    assert idle.num_channels - lent_in_use >= 1


def test_stop(world):
    virt, manager, vssds = world
    manager.start()
    manager.stop()
    virt.sim.run_until_seconds(0.5)
    assert manager.reallocations == 0
