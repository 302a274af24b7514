"""Tests for capacity-purpose harvesting (the Section 5 extension)."""

import pytest

from repro.config import SSDConfig
from repro.sim import Simulator
from repro.ssd import Ssd, VssdFtl
from repro.ssd.ftl import OutOfSpaceError
from repro.virt.gsb_manager import GsbManager
from repro.virt.vssd import Vssd


@pytest.fixture
def world():
    config = SSDConfig(
        num_channels=4,
        chips_per_channel=2,
        blocks_per_chip=8,
        pages_per_block=16,
        min_superblock_blocks=4,
    )
    ssd = Ssd(config, Simulator())
    manager = GsbManager(ssd)

    def make(vssd_id, channels):
        ftl = VssdFtl(vssd_id, ssd)
        ftl.adopt_blocks(ssd.allocate_channels(vssd_id, channels))
        vssd = Vssd(vssd_id, f"v{vssd_id}", ftl, channels)
        manager.register_vssd(vssd)
        return vssd

    return config, manager, make(0, [0, 1]), make(1, [2, 3])


def test_capacity_harvest_extends_usable_space(world):
    config, manager, home, harvester = world
    base = harvester.usable_capacity_pages()
    per = config.channel_write_bandwidth_mbps
    manager.make_harvestable(home, per + 1)
    gsb = manager.harvest(harvester, per + 1, purpose="capacity")
    assert gsb is not None
    gained = config.min_superblock_blocks * config.pages_per_block
    assert harvester.usable_capacity_pages() == base + gained
    assert harvester.harvested_capacity_pages() == gained


def test_bandwidth_harvest_adds_no_durable_capacity(world):
    config, manager, home, harvester = world
    base = harvester.usable_capacity_pages()
    per = config.channel_write_bandwidth_mbps
    manager.make_harvestable(home, per + 1)
    manager.harvest(harvester, per + 1, purpose="bandwidth")
    assert harvester.usable_capacity_pages() == base
    assert harvester.harvested_capacity_pages() == 0


def test_capacity_region_holds_more_data_than_own_space(world):
    """With a capacity gSB, the harvester stores a working set that
    exceeds its own logical capacity — impossible without the gSB."""
    config, manager, home, harvester = world
    per = config.channel_write_bandwidth_mbps
    own_pages = 2 * config.blocks_per_channel * config.pages_per_block
    # More unique data than the own space can hold once GC headroom is
    # accounted for (own raw capacity minus one GC reserve-ish margin).
    working_set = int(own_pages * 0.95)
    manager.make_harvestable(home, per + 1)
    manager.harvest(harvester, per + 1, purpose="capacity")
    for lpn in range(working_set):
        harvester.ftl.write_span(lpn, 1)
    assert harvester.ftl.mapped_pages() == working_set
    store = harvester.ftl._store
    for lpn in (0, working_set // 2, working_set - 1):
        assert store.page_lpns[harvester.ftl.page_location(lpn)] == lpn


def test_capacity_region_compacts_in_place(world):
    """Overwrites inside a capacity region trigger in-region GC, not
    copy-back to the harvester's own blocks."""
    config, manager, home, harvester = world
    per = config.channel_write_bandwidth_mbps
    manager.make_harvestable(home, per + 1)
    gsb = manager.harvest(harvester, per + 1, purpose="capacity")
    capacity = config.min_superblock_blocks * config.pages_per_block
    # Repeatedly overwrite a small set that maps into the region.
    lpns = list(range(90_000, 90_000 + capacity // 2))
    for _round in range(6):
        for lpn in lpns:
            harvester.ftl.write_span(lpn, 1)
    # Data written into the region stays in the region's channel space
    # for at least part of the set (compaction kept it there).
    region_channels = set(gsb.channel_ids)
    store = harvester.ftl._store
    gids = [harvester.ftl.page_location(lpn)[0] for lpn in lpns]
    in_region = sum(
        1
        for gid in gids
        if store.locate(gid)[0] in region_channels and store.gsb_of[gid] == gsb.gsb_id
    )
    assert in_region > 0


def test_capacity_exhaustion_raises(world):
    config, manager, home, harvester = world
    per = config.channel_write_bandwidth_mbps
    manager.make_harvestable(home, per + 1)
    manager.harvest(harvester, per + 1, purpose="capacity")
    raw_total = (
        2 * config.blocks_per_channel
        + config.min_superblock_blocks
    ) * config.pages_per_block
    with pytest.raises(OutOfSpaceError):
        for lpn in range(raw_total + 100):
            harvester.ftl.write_span(lpn, 1)


def test_region_purpose_validation(world):
    from repro.ssd.region import WriteRegion

    _config, manager, _home, _harvester = world
    with pytest.raises(ValueError):
        WriteRegion("r", manager.store, purpose="latency")
