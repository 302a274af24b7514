"""Degraded-channel awareness in the gSB manager and admission control."""

import pytest

from repro.config import SSDConfig
from repro.sim import Simulator
from repro.ssd import Ssd, VssdFtl
from repro.virt import StorageVirtualizer
from repro.virt.actions import HarvestAction, MakeHarvestableAction, SetPriorityAction
from repro.virt.gsb_manager import GsbManager
from repro.virt.vssd import Vssd


@pytest.fixture
def world():
    config = SSDConfig(
        num_channels=4,
        chips_per_channel=2,
        blocks_per_chip=8,
        pages_per_block=16,
        min_superblock_blocks=2,
    )
    sim = Simulator()
    ssd = Ssd(config, sim)
    manager = GsbManager(ssd)

    def make_vssd(vssd_id, channels):
        ftl = VssdFtl(vssd_id, ssd)
        ftl.adopt_blocks(ssd.allocate_channels(vssd_id, channels))
        vssd = Vssd(vssd_id, f"v{vssd_id}", ftl, channels)
        manager.register_vssd(vssd)
        return vssd

    home = make_vssd(0, [0, 1])
    harvester = make_vssd(1, [2, 3])
    return config, sim, ssd, manager, home, harvester


def one_channel_bw(config):
    return config.channel_write_bandwidth_mbps + 1.0


def test_offer_skips_degraded_channels(world):
    config, _sim, ssd, manager, home, _harvester = world
    ssd.set_channel_fault(0, slowdown=4.0)
    gsb = manager.make_harvestable(home, 2 * config.channel_write_bandwidth_mbps + 1)
    assert gsb is not None
    assert gsb.channel_ids == [1]  # channel 0 refused


def test_harvest_skips_gsbs_on_degraded_channels(world):
    config, _sim, ssd, manager, home, harvester = world
    gsb = manager.make_harvestable(home, one_channel_bw(config))
    assert gsb.channel_ids == [0] or gsb.channel_ids == [1]
    faulted = gsb.channel_ids[0]
    ssd.set_channel_fault(faulted, extra_latency_us=1000.0)
    assert manager.harvest(harvester, one_channel_bw(config)) is None
    assert manager.stats.harvest_misses == 1


def test_reclaim_degraded_destroys_pooled_gsbs(world):
    config, _sim, ssd, manager, home, _harvester = world
    gsb = manager.make_harvestable(home, one_channel_bw(config))
    blocks_before = home.ftl.own_region.free_block_count_on(gsb.channel_ids[0])
    ssd.set_channel_fault(gsb.channel_ids[0], slowdown=2.0)
    assert manager.reclaim_degraded() == 1
    assert manager.pool.available() == 0
    assert gsb not in home.harvestable_gsbs
    assert (
        home.ftl.own_region.free_block_count_on(gsb.channel_ids[0]) > blocks_before
    )
    # No degraded channels -> fast no-op.
    ssd.clear_channel_fault(gsb.channel_ids[0])
    assert manager.reclaim_degraded() == 0


def test_reclaim_degraded_lazily_reclaims_in_use_gsbs(world):
    config, _sim, ssd, manager, home, harvester = world
    manager.make_harvestable(home, one_channel_bw(config))
    gsb = manager.harvest(harvester, one_channel_bw(config))
    assert gsb.in_use
    ssd.set_channel_fault(gsb.channel_ids[0], slowdown=2.0)
    assert manager.reclaim_degraded() == 1
    assert gsb.reclaiming
    # Unwritten gSB: all blocks were free, so reclamation completes.
    assert gsb not in harvester.harvested_gsbs


def test_release_harvested_returns_everything(world):
    config, _sim, _ssd, manager, home, harvester = world
    manager.make_harvestable(home, 2 * config.channel_write_bandwidth_mbps + 1)
    gsb = manager.harvest(harvester, one_channel_bw(config))
    assert gsb is not None
    assert manager.release_harvested(harvester) == 1
    assert manager.stats.gsbs_released_by_watchdog == 1
    assert harvester.harvested_gsbs == []
    assert manager.release_harvested(harvester) == 0


def test_admission_denies_degraded_vssd_harvesting():
    virt = StorageVirtualizer(config=SSDConfig(num_channels=4, chips_per_channel=2,
                                               blocks_per_chip=8, pages_per_block=16,
                                               min_superblock_blocks=2))
    a = virt.create_vssd("a", [0, 1])
    b = virt.create_vssd("b", [2, 3])
    a.degraded = True
    stats = virt.admission.stats
    virt.admission.submit(HarvestAction(a.vssd_id, 100.0))
    virt.admission.submit(MakeHarvestableAction(a.vssd_id, 100.0))
    assert stats.denied == 2
    assert stats.denied_degraded == 2
    assert virt.admission.pending_actions == 0
    # Priority changes and healthy tenants still pass.
    virt.admission.submit(SetPriorityAction(a.vssd_id, level=2))
    assert stats.priority_changes == 1
    virt.admission.submit(HarvestAction(b.vssd_id, 100.0))
    assert virt.admission.pending_actions == 1


def test_admission_batch_tick_pumps_degraded_reclaim():
    config = SSDConfig(num_channels=4, chips_per_channel=2, blocks_per_chip=8,
                       pages_per_block=16, min_superblock_blocks=2)
    virt = StorageVirtualizer(config=config)
    home = virt.create_vssd("home", [0, 1])
    virt.create_vssd("other", [2, 3])
    gsb = virt.gsb_manager.make_harvestable(
        home, config.channel_write_bandwidth_mbps + 1.0
    )
    virt.ssd.set_channel_fault(gsb.channel_ids[0], slowdown=3.0)
    virt.admission.start()
    virt.sim.run_until_seconds(0.2)
    assert virt.gsb_manager.stats.gsbs_reclaimed_degraded == 1
    assert virt.gsb_manager.pool.available() == 0
