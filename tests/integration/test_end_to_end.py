"""End-to-end integration: the full FleetIO stack on a small device."""

import numpy as np
import pytest

from repro.config import RLConfig, SSDConfig
from repro.core.actionspace import ActionSpace
from repro.core.controller import FleetIoController
from repro.core.monitor import VssdMonitor
from repro.harness import Experiment, plans_for_pair
from repro.rl import PolicyValueNet
from repro.sched.request import Priority
from repro.virt import StorageVirtualizer
from repro.virt.actions import HarvestAction, MakeHarvestableAction, SetPriorityAction
from repro.workloads import WorkloadModel, get_spec, make_driver


@pytest.fixture
def fast_config():
    return SSDConfig(
        num_channels=4,
        chips_per_channel=2,
        blocks_per_chip=16,
        pages_per_block=32,
        min_superblock_blocks=4,
    )


def test_full_harvest_cycle_under_live_traffic(fast_config):
    """Offer -> harvest -> write through gSB -> reclaim, with workloads
    running and data integrity preserved throughout."""
    virt = StorageVirtualizer(config=fast_config)
    lat = virt.create_vssd("lat", [0, 1], slo_latency_us=5000.0)
    bw = virt.create_vssd("bw", [2, 3])
    rng = np.random.default_rng(0)
    drivers = []
    for vssd, name in ((lat, "ycsb"), (bw, "batchanalytics")):
        model = WorkloadModel(get_spec(name), rng, 2000)
        driver = make_driver(model, vssd.vssd_id, virt.sim, virt.dispatcher.submit, fast_config.page_size)
        virt.dispatcher.add_completion_callback(
            lambda r, d=driver, vid=vssd.vssd_id: d.on_complete(r) if r.vssd_id == vid else None
        )
        drivers.append(driver)
        driver.start()
    virt.admission.start()
    per = fast_config.channel_write_bandwidth_mbps
    virt.admission.submit(MakeHarvestableAction(lat.vssd_id, per + 1))
    virt.admission.submit(HarvestAction(bw.vssd_id, per + 1))
    virt.admission.submit(SetPriorityAction(lat.vssd_id, Priority.HIGH))
    virt.sim.run_until_seconds(2.0)
    assert bw.harvested_channel_count() == 1
    assert lat.priority is Priority.HIGH
    # Reclaim while traffic continues.
    virt.admission.submit(MakeHarvestableAction(lat.vssd_id, 0.0 + 1e-9))
    virt.sim.run_until_seconds(3.0)
    virt.gsb_manager.pump_reclaims()
    assert bw.harvested_channel_count() == 0
    assert virt.gsb_manager.stats.blocks_returned >= 4
    # Both workloads kept completing.
    assert all(d.completed > 50 for d in drivers)


def test_fleetio_controller_full_loop(fast_config):
    """Controller + random-policy agents drive admission without errors
    and keep crediting rewards."""
    rl = RLConfig(decision_interval_s=0.2, batch_size=8)
    virt = StorageVirtualizer(config=fast_config)
    space = ActionSpace(fast_config.channel_write_bandwidth_mbps)
    net = PolicyValueNet(rl.state_dim, space.num_actions, (8, 8))
    controller = FleetIoController(virt, net, rl_config=rl, explore=True, finetune=True)
    rng = np.random.default_rng(1)
    for name, channels, workload in (("lat", [0, 1], "ycsb"), ("bw", [2, 3], "batchanalytics")):
        vssd = virt.create_vssd(name, channels, slo_latency_us=5000.0)
        monitor = VssdMonitor(vssd)
        virt.dispatcher.add_completion_callback(monitor.on_complete, vssd_id=vssd.vssd_id)
        controller.register_vssd(vssd, monitor)
        model = WorkloadModel(get_spec(workload), rng, 2000)
        driver = make_driver(model, vssd.vssd_id, virt.sim, virt.dispatcher.submit, fast_config.page_size)
        virt.dispatcher.add_completion_callback(
            lambda r, d=driver, vid=vssd.vssd_id: d.on_complete(r) if r.vssd_id == vid else None
        )
        driver.start()
    controller.start()
    virt.sim.run_until_seconds(3.0)
    assert controller._window_index >= 14
    for agent in controller.agents.values():
        assert len(agent.rewards_seen) >= 10


def test_comparison_orderings_hold_on_small_device(fast_config):
    """The motivation-study ordering (Fig. 2/3): software isolation gets
    more utilization and worse tails than hardware isolation."""
    plans = plans_for_pair("ycsb", "batchanalytics")
    hw = Experiment(plans, "hardware", ssd_config=fast_config, seed=1).run(
        duration_s=6.0, measure_after_s=1.0
    )
    for plan in plans:
        plan.slo_latency_us = hw.vssd(plan.name).p99_latency_us
    sw = Experiment(plans, "software", ssd_config=fast_config, seed=1).run(
        duration_s=6.0, measure_after_s=1.0
    )
    assert sw.avg_utilization > hw.avg_utilization
    assert sw.vssd("ycsb").p99_latency_us > hw.vssd("ycsb").p99_latency_us
    assert sw.vssd("batchanalytics").mean_bw_mbps > hw.vssd("batchanalytics").mean_bw_mbps


def test_deallocation_under_traffic(fast_config):
    virt = StorageVirtualizer(config=fast_config)
    a = virt.create_vssd("a", [0, 1])
    b = virt.create_vssd("b", [2, 3])
    rng = np.random.default_rng(2)
    model = WorkloadModel(get_spec("ycsb"), rng, 1000)
    driver = make_driver(model, b.vssd_id, virt.sim, virt.dispatcher.submit, fast_config.page_size)
    virt.dispatcher.add_completion_callback(
        lambda r: driver.on_complete(r) if r.vssd_id == b.vssd_id else None
    )
    driver.start()
    virt.sim.run_until_seconds(0.5)
    a.ftl.warm_fill(range(500))
    virt.deallocate_vssd(a.vssd_id)
    virt.offer_placeholder_capacity()
    per = fast_config.channel_write_bandwidth_mbps
    gsb = virt.gsb_manager.harvest(b, per + 1)
    assert gsb is not None
    virt.sim.run_until_seconds(1.5)
    assert driver.completed > 0
