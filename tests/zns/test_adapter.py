"""Tests for the zone <-> gSB adapter."""

import pytest

from repro.config import SSDConfig
from repro.sim import Simulator
from repro.ssd import Ssd, VssdFtl
from repro.virt.gsb import GsbPool
from repro.virt.vssd import Vssd
from repro.zns import ZnsError, ZnsHarvestAdapter, ZonedNamespace, ZoneState, zone_to_gsb


@pytest.fixture
def world():
    config = SSDConfig(
        num_channels=3, chips_per_channel=2, blocks_per_chip=8, pages_per_block=8
    )
    sim = Simulator()
    ssd = Ssd(config, sim)
    # Channels 0-1: a zoned tenant.  Channel 2: a block-interface vSSD.
    ns = ZonedNamespace(ssd, owner_id=100, channel_ids=[0, 1], blocks_per_zone=4)
    ftl = VssdFtl(1, ssd)
    ftl.adopt_blocks(ssd.allocate_channels(1, [2]))
    harvester = Vssd(1, "blocky", ftl, [2])
    pool = GsbPool(config.num_channels)
    adapter = ZnsHarvestAdapter(ns, pool)
    return config, sim, ssd, ns, harvester, pool, adapter


def test_zone_to_gsb_requires_empty(world):
    *_rest, ns, _harvester, _pool, _adapter = world[:4] + world[4:]
    ns = world[3]
    ns.append(0, pages=1)
    with pytest.raises(ZnsError):
        zone_to_gsb(ns.zone(0), home_id=100)


def test_offer_zone_pools_gsb_and_blocks_appends(world):
    config, sim, ssd, ns, harvester, pool, adapter = world
    gsb = adapter.offer_zone(0)
    assert pool.available() == 1
    assert ns.zone(0).state is ZoneState.FULL  # lent: host cannot append
    assert all(ssd.store.gsb_of[gid] == gsb.gsb_id >= 0 for gid in gsb.blocks)
    from repro.zns.zone import ZoneError

    with pytest.raises(ZoneError):
        ns.append(0, pages=1)


def test_offer_empty_zones_bulk(world):
    config, sim, ssd, ns, harvester, pool, adapter = world
    offered = adapter.offer_empty_zones(3)
    assert len(offered) == 3
    assert adapter.zones_lent == 3


def test_harvest_installs_region(world):
    config, sim, ssd, ns, harvester, pool, adapter = world
    adapter.offer_zone(0)
    gsb = adapter.harvest(harvester)
    assert gsb is not None
    assert gsb.in_use
    channel = ns.zone(0).channel_id
    assert channel in harvester.ftl.write_channels()
    # The harvester's writes can land on the zoned tenant's channel.
    harvester.ftl.write_span(0, 40)
    locate = ssd.store.locate
    assert channel in {locate(harvester.ftl.page_location(lpn)[0])[0] for lpn in range(40)}


def test_reclaim_unused_resets_zone(world):
    config, sim, ssd, ns, harvester, pool, adapter = world
    gsb = adapter.offer_zone(0)
    adapter.reclaim(gsb)
    assert ns.zone(0).state is ZoneState.EMPTY
    assert pool.available() == 0
    assert adapter.zones_lent == 0
    ns.append(0, pages=1)  # usable again


def test_reclaim_in_use_migrates_and_resets(world):
    config, sim, ssd, ns, harvester, pool, adapter = world
    gsb = adapter.offer_zone(0)
    adapter.harvest(harvester)
    lpns = list(range(5000, 5000 + 2 * config.pages_per_block))
    for lpn in lpns:
        harvester.ftl.write_span(lpn, 1)
    adapter.reclaim(gsb, harvester)
    assert ns.zone(0).state is ZoneState.EMPTY
    assert adapter.zones_lent == 0
    assert adapter.zones_returned == 1
    # Harvester data migrated to its own blocks, intact.
    for lpn in lpns:
        location = harvester.ftl.page_location(lpn)
        assert location is not None
        assert ssd.store.owner[location[0]] == harvester.vssd_id
        assert ssd.store.page_lpns[location] == lpn


def test_channel_count_drops_when_a_zns_reclaim_starts(world):
    """A lazy reclaim stops the zone counting toward the harvester's
    channels the moment it starts (the collection that follows sees the
    smaller count), and the count equals a recount throughout."""
    from tests.virt.test_gsb_pool_stress import recounted_channels

    config, sim, ssd, ns, harvester, pool, adapter = world
    ftl = harvester.ftl
    gsb = adapter.offer_zone(0)
    adapter.harvest(harvester)
    assert ftl.channel_count() == recounted_channels(ftl) == 2
    ftl.write_span(5000, 2 * config.pages_per_block)
    seen = []
    collect_blocks = ftl.collect_blocks

    def counting(gids, region):
        seen.append((ftl.channel_count(), recounted_channels(ftl)))
        return collect_blocks(gids, region)

    ftl.collect_blocks = counting
    adapter.reclaim(gsb, harvester)
    assert seen == [(1, 1)]
    assert ftl.channel_count() == recounted_channels(ftl) == 1


def test_reclaim_in_use_requires_harvester(world):
    config, sim, ssd, ns, harvester, pool, adapter = world
    gsb = adapter.offer_zone(0)
    adapter.harvest(harvester)
    with pytest.raises(ZnsError):
        adapter.reclaim(gsb)


def test_foreign_gsb_rejected(world):
    config, sim, ssd, ns, harvester, pool, adapter = world
    from repro.virt.gsb import GhostSuperblock

    foreign = GhostSuperblock(
        1, [99], home_vssd=55, blocks_per_channel=ssd.store.blocks_per_channel
    )
    with pytest.raises(ZnsError):
        adapter.reclaim(foreign)
