"""Tests for the zoned namespace over the DES."""

import pytest

from repro.config import SSDConfig
from repro.sim import Simulator
from repro.ssd import BlockState, Ssd
from repro.zns import ZnsError, ZonedNamespace, ZoneState


@pytest.fixture
def world():
    config = SSDConfig(
        num_channels=2, chips_per_channel=2, blocks_per_chip=8, pages_per_block=8
    )
    sim = Simulator()
    ssd = Ssd(config, sim)
    ns = ZonedNamespace(ssd, owner_id=7, channel_ids=[0, 1], blocks_per_zone=4,
                        max_open_zones=2)
    return config, sim, ssd, ns


def test_zone_carving(world):
    config, _sim, ssd, ns = world
    # 16 blocks per channel / 4 per zone = 4 zones per channel.
    assert len(ns.zones) == 8
    assert ns.zone_capacity_pages == 4 * config.pages_per_block
    store = ssd.store
    for zone in ns.zones:
        assert all(store.owner[gid] == 7 for gid in zone.blocks)
        assert {store.locate(gid)[0] for gid in zone.blocks} == {zone.channel_id}
    # Zones stripe chips within their channel, in (index, chip) order.
    assert [store.locate(gid) for gid in ns.zones[0].blocks] == [
        (0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)
    ]


def test_no_unowned_blocks_rejected(world):
    config, sim, ssd, _ns = world
    with pytest.raises(ZnsError):
        ZonedNamespace(ssd, owner_id=9, channel_ids=[0], blocks_per_zone=4)


def test_append_charges_channel_time(world):
    config, sim, ssd, ns = world
    done = ns.append(0, pages=4)
    assert done > 0
    assert ns.zone(0).write_pointer == 4
    # The clock never moved: four transfers sit on the zone's bus and
    # four programs on its chips, and the append ends with the last one.
    channel_id = ns.zone(0).channel_id
    arrays = ssd.arrays
    cpc = config.chips_per_channel
    chips = arrays.chip_busy[channel_id * cpc:(channel_id + 1) * cpc]
    assert arrays.bus_busy[channel_id] >= 4 * config.bus_transfer_us - 1e-9
    assert sum(chips) >= 4 * config.page_write_us - 1e-9
    assert done == max(chips)
    assert not any(arrays.bus_busy[c] for c in range(config.num_channels) if c != channel_id)


def test_append_is_strictly_sequential(world):
    _config, _sim, _ssd, ns = world
    ns.append(0, pages=3)
    ns.append(0, pages=2)
    assert ns.zone(0).write_pointer == 5


def test_read_within_write_pointer(world):
    _config, _sim, ssd, ns = world
    ns.append(0, pages=4)
    done = ns.read(0, page_index=1, pages=2)
    assert done > 0
    with pytest.raises(ZnsError):
        ns.read(0, page_index=3, pages=2)


def test_open_zone_limit_enforced(world):
    _config, _sim, _ssd, ns = world
    ns.open_zone(0)
    ns.open_zone(1)
    with pytest.raises(ZnsError):
        ns.open_zone(2)
    ns.close_zone(0)
    ns.open_zone(2)  # slot freed


def test_implicit_open_on_append(world):
    _config, _sim, _ssd, ns = world
    ns.append(3, pages=1)
    assert ns.zone(3).state is ZoneState.OPEN


def test_full_zone_rejects_append(world):
    _config, _sim, _ssd, ns = world
    ns.append(0, pages=ns.zone_capacity_pages)
    assert ns.zone(0).state is ZoneState.FULL
    from repro.zns.zone import ZoneError

    with pytest.raises(ZoneError):
        ns.append(0, pages=1)


def test_reset_erases_and_reuses(world):
    config, sim, ssd, ns = world
    ns.append(0, pages=ns.zone_capacity_pages)
    done = ns.reset_zone(0)
    assert done >= config.block_erase_us
    assert ns.zone(0).state is ZoneState.EMPTY
    assert all(ssd.store.state[gid] is BlockState.FREE for gid in ns.zone(0).blocks)
    # The zone is writable again.
    ns.append(0, pages=2)
    assert ns.zone(0).write_pointer == 2


def test_zones_in_state(world):
    _config, _sim, _ssd, ns = world
    ns.append(0, pages=1)
    assert ns.zone(0) in ns.zones_in(ZoneState.OPEN)
    assert len(ns.zones_in(ZoneState.EMPTY)) == 7


def test_unknown_zone_rejected(world):
    _config, _sim, _ssd, ns = world
    with pytest.raises(ZnsError):
        ns.zone(99)


def test_report_zones(world):
    _config, _sim, _ssd, ns = world
    ns.append(2, pages=5)
    report = ns.report_zones()
    assert len(report) == len(ns.zones)
    row = report[2]
    assert row["state"] == "open"
    assert row["write_pointer"] == 5
    assert row["capacity_pages"] == ns.zone_capacity_pages
    assert {r["zone_id"] for r in report} == set(range(len(ns.zones)))
