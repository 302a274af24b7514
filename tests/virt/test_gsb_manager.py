"""Tests for the gSB manager: create, harvest, reclaim lifecycles."""

import gc
import weakref

import pytest

from repro.config import SSDConfig
from repro.sim import Simulator
from repro.ssd import Ssd, VssdFtl
from repro.ssd.hbt import HarvestedBlockTable
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
    hbt = HarvestedBlockTable()
    manager = GsbManager(ssd, hbt)

    def make_vssd(vssd_id, channels):
        ftl = VssdFtl(vssd_id, ssd, hbt=hbt)
        ftl.adopt_blocks(ssd.allocate_channels(vssd_id, channels))
        vssd = Vssd(vssd_id, f"v{vssd_id}", ftl, channels)
        manager.register_vssd(vssd)
        return vssd

    home = make_vssd(0, [0, 1])
    harvester = make_vssd(1, [2, 3])
    return config, sim, ssd, manager, home, harvester


def test_bandwidth_to_channels_rounds_down(world):
    config, _sim, _ssd, manager, *_ = world
    per = config.channel_write_bandwidth_mbps
    assert manager.bandwidth_to_channels(per * 2.5) == 2
    assert manager.bandwidth_to_channels(per * 0.9) == 0


def test_make_harvestable_creates_gsb(world):
    config, _sim, _ssd, manager, home, _harvester = world
    gsb = manager.make_harvestable(home, 2 * config.channel_write_bandwidth_mbps + 1)
    assert gsb is not None
    assert gsb.n_chls == 2
    assert gsb.capacity_blocks == 2 * config.min_superblock_blocks
    assert all(b.harvested_flag for b in gsb.blocks)
    assert gsb in home.harvestable_gsbs
    assert manager.pool.available() == 1


def test_make_harvestable_zero_bandwidth_noop(world):
    config, _sim, _ssd, manager, home, _harvester = world
    assert manager.make_harvestable(home, 0.0) is None
    assert manager.pool.available() == 0


def test_free_block_floor_respected(world):
    config, _sim, _ssd, manager, home, _ = world
    # Consume blocks until free fraction is below the 25% floor.
    total_pages = 2 * config.blocks_per_channel * config.pages_per_block
    home.ftl.warm_fill(range(int(total_pages * 0.8)))
    gsb = manager.make_harvestable(home, 2 * config.channel_write_bandwidth_mbps + 1)
    assert gsb is None


def test_repeat_offers_do_not_duplicate(world):
    config, _sim, _ssd, manager, home, _ = world
    bw = 2 * config.channel_write_bandwidth_mbps + 1
    first = manager.make_harvestable(home, bw)
    second = manager.make_harvestable(home, bw)
    assert first is not None
    assert second is None  # target already met
    assert home.offered_channel_count() == 2


def test_harvest_installs_region(world):
    config, _sim, _ssd, manager, home, harvester = world
    bw = config.channel_write_bandwidth_mbps + 1
    manager.make_harvestable(home, bw)
    gsb = manager.harvest(harvester, bw)
    assert gsb is not None
    assert gsb.in_use
    assert gsb.harvest_vssd == harvester.vssd_id
    assert gsb.region in harvester.ftl.harvest_regions
    assert gsb in harvester.harvested_gsbs
    assert harvester.harvested_channel_count() == gsb.n_chls


def test_harvest_empty_pool_misses(world):
    config, _sim, _ssd, manager, _home, harvester = world
    assert manager.harvest(harvester, 100.0) is None
    assert manager.stats.harvest_misses == 1


def test_cannot_harvest_own_gsb(world):
    config, _sim, _ssd, manager, home, _harvester = world
    bw = config.channel_write_bandwidth_mbps + 1
    manager.make_harvestable(home, bw)
    assert manager.harvest(home, bw) is None


def test_reclaim_unused_returns_blocks_immediately(world):
    config, _sim, _ssd, manager, home, _harvester = world
    bw = 2 * config.channel_write_bandwidth_mbps + 1
    gsb = manager.make_harvestable(home, bw)
    free_before = home.ftl.own_region.free_block_count()
    manager.reclaim_excess(home, 0)
    assert manager.pool.available() == 0
    assert home.harvestable_gsbs == []
    assert home.ftl.own_region.free_block_count() == free_before + gsb.capacity_blocks
    assert all(not b.harvested_flag for b in gsb.blocks)


def test_make_harvestable_smaller_target_reclaims(world):
    config, _sim, _ssd, manager, home, _harvester = world
    per = config.channel_write_bandwidth_mbps
    manager.make_harvestable(home, 2 * per + 1)
    # Lowering the target to one channel reclaims the 2-channel gSB and
    # offers a fresh 1-channel one.
    manager.make_harvestable(home, per + 1)
    assert home.offered_channel_count() == 1
    assert manager.stats.gsbs_destroyed_unused == 1


def test_lazy_reclaim_of_in_use_gsb(world):
    config, sim, _ssd, manager, home, harvester = world
    per = config.channel_write_bandwidth_mbps
    manager.make_harvestable(home, per + 1)
    gsb = manager.harvest(harvester, per + 1)
    # Harvester writes into the gSB.
    target_channel = gsb.channel_ids[0]
    lpn = 50_000
    wrote = 0
    while wrote < config.pages_per_block:
        _done, pages_by_channel = harvester.ftl.write_span(lpn, 1)
        lpn += 1
        wrote += pages_by_channel.get(target_channel, 0)
    free_before = home.ftl.own_region.free_block_count()
    capacity = gsb.capacity_blocks
    manager.reclaim_excess(home, 0)
    assert gsb.reclaiming
    manager.pump_reclaims()
    # All blocks eventually return home and the reclaim finalizes.
    assert manager.reclaiming_gsbs() == []
    assert home.ftl.own_region.free_block_count() == free_before + capacity
    assert gsb.region not in harvester.ftl.harvest_regions
    assert gsb not in harvester.harvested_gsbs
    # Migrated data must still be readable from the harvester.
    assert harvester.ftl.page_location(50_000) is not None


def test_finalized_reclaim_frees_its_region_without_gc(world):
    config, _sim, _ssd, manager, home, harvester = world
    per = config.channel_write_bandwidth_mbps
    manager.make_harvestable(home, per + 1)
    gsb = manager.harvest(harvester, per + 1)
    region = weakref.ref(gsb.region)
    gc.collect()
    gc.disable()
    try:
        manager.reclaim_excess(home, 0)
        assert manager.reclaiming_gsbs() == []
        del gsb
        # The release hook held the gSB, and the gSB its region: once the
        # reclaim finalizes nothing may keep that pair alive.
        assert region() is None
    finally:
        gc.enable()


def test_lazy_reclaim_preserves_harvester_data(world):
    config, _sim, _ssd, manager, home, harvester = world
    per = config.channel_write_bandwidth_mbps
    manager.make_harvestable(home, per + 1)
    manager.harvest(harvester, per + 1)
    lpns = list(range(80_000, 80_000 + 3 * config.pages_per_block))
    for lpn in lpns:
        harvester.ftl.write_span(lpn, 1)
    manager.reclaim_excess(home, 0)
    manager.pump_reclaims()
    for lpn in lpns:
        pointer = harvester.ftl.page_location(lpn)
        assert pointer is not None
        assert pointer.block.page_lpns[pointer.page] == lpn


def test_unregistered_vssd_raises(world):
    config, _sim, ssd, manager, home, _harvester = world
    with pytest.raises(KeyError):
        manager._vssd_of(99)


def test_stats_track_lifecycle(world):
    config, _sim, _ssd, manager, home, harvester = world
    per = config.channel_write_bandwidth_mbps
    manager.make_harvestable(home, per + 1)
    manager.harvest(harvester, per + 1)
    manager.reclaim_excess(home, 0)
    manager.pump_reclaims()
    stats = manager.stats
    assert stats.gsbs_created == 1
    assert stats.gsbs_harvested == 1
    assert stats.gsbs_reclaimed_lazily == 1
    assert stats.blocks_returned == stats.blocks_offered
