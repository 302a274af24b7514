"""Tests for the FTL: mapping, striping, regions, capacity."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SSDConfig
from repro.sim import Simulator
from repro.ssd import BlockState, Ssd, VssdFtl
from repro.ssd.blockstate import NO_LPN
from repro.ssd.ftl import OutOfSpaceError
from repro.ssd.region import WriteRegion
from tests.test_hotpath_equivalence import _ftl_state


def _channels_of(ftl, lpns) -> set:
    """The channels the given LPNs are mapped to."""
    return {ftl._store.locate(ftl.page_location(lpn)[0])[0] for lpn in lpns}


def test_write_then_read_same_page(ftl):
    ftl.write_span(42, 1)
    location = ftl.page_location(42)
    assert location is not None
    channel_id = ftl._store.locate(location[0])[0]
    bus_busy = ftl.ssd.arrays.bus_busy
    before = list(bus_busy)
    done = ftl.read_span(42, 1)
    # Only the page's own channel is charged, and the read ends its bus.
    moved = [c for c, horizon in enumerate(bus_busy) if horizon != before[c]]
    assert moved == [channel_id]
    assert done == bus_busy[channel_id]


def test_page_location_is_gid_and_page(ftl):
    """``page_location`` names a page by (gid, page): the block's row in
    the store and the page within it, or None for an unmapped LPN."""
    assert ftl.page_location(3) is None
    assert ftl.page_location(-1) is None
    ftl.write_span(3, 1)
    gid, page = ftl.page_location(3)
    assert ftl._store.page_lpns[gid, page] == 3
    assert (gid, page) == (ftl._l2p_gid[3], ftl._l2p_page[3])


def test_overwrite_invalidates_old_page(ftl):
    ftl.write_span(7, 1)
    old = ftl.page_location(7)
    ftl.write_span(7, 1)
    new = ftl.page_location(7)
    assert new != old
    assert ftl._store.page_lpns[old] == NO_LPN


def test_writes_stripe_across_channels(ftl):
    ftl.write_span(0, 16)
    assert _channels_of(ftl, range(16)) == {0, 1}


def test_writes_stripe_across_chips(ftl, ssd):
    for lpn in range(16):
        ftl.write_span(lpn, 1)
    chips = {ftl._store.locate(ftl.page_location(lpn)[0])[1] for lpn in range(16)}
    assert len(chips) == 2


def test_unmapped_read_serviced(ftl):
    done = ftl.read_span(999, 1)
    assert done > 0
    assert ftl.stats.unmapped_reads == 1


def test_mapped_pages_counter(ftl):
    for lpn in range(10):
        ftl.write_span(lpn, 1)
    assert ftl.mapped_pages() == 10
    ftl.write_span(0, 1)
    assert ftl.mapped_pages() == 10


def test_warm_fill_consumes_no_time(ftl, sim):
    ftl.warm_fill(range(64))
    assert sim.now == 0.0
    assert ftl.mapped_pages() == 64
    assert ftl.stats.host_writes == 0


def test_warm_fill_rejects_negative_lpn_before_touching_state(ftl):
    """``l2p[-1]`` is the *last* LPN's mapping: a negative LPN used to
    invalidate that page and store NO_LPN (-1) as live data."""
    ftl.warm_fill(range(6))
    before = _ftl_state(ftl)
    with pytest.raises(ValueError, match="negative LPN"):
        ftl.warm_fill([5, -1])
    assert _ftl_state(ftl) == before
    assert ftl._store.page_lpns[ftl.page_location(5)] == 5


def test_free_pages_decrease_with_writes(ftl, small_config):
    start = ftl.free_pages()
    ftl.warm_fill(range(32))
    assert ftl.free_pages() == start - 32


def test_free_fraction_overall_and_per_channel(ftl, small_config):
    assert ftl.free_fraction() == pytest.approx(1.0)
    assert ftl.free_fraction(0) == pytest.approx(1.0)
    assert ftl.free_fraction(3) == 0.0  # unowned channel
    ftl.warm_fill(range(small_config.pages_per_block * 4))
    assert ftl.free_fraction() < 1.0


def test_adopt_foreign_block_rejected(ftl, ssd):
    foreign = ssd.allocate_channels(9, [2])
    with pytest.raises(ValueError):
        ftl.adopt_blocks(foreign[:1])


def test_out_of_space_raises(small_config, sim):
    ssd = Ssd(small_config, sim)
    ftl = VssdFtl(0, ssd)
    ftl.adopt_blocks(ssd.allocate_channels(0, [0]))
    total_pages = small_config.blocks_per_channel * small_config.pages_per_block
    with pytest.raises(OutOfSpaceError):
        # Unique LPNs: nothing invalidates, so GC cannot help.
        for lpn in range(total_pages + 1):
            ftl.write_span(lpn, 1)


def test_trim_all_invalidates_everything(ftl):
    ftl.warm_fill(range(40))
    assert ftl.trim_all() == 40
    assert ftl.mapped_pages() == 0


def test_surrender_free_blocks(ftl, small_config):
    before = ftl.own_region.free_block_count_on(0)
    taken = ftl.surrender_free_blocks(0, 3)
    assert len(taken) == 3
    assert all(ftl._store.locate(gid)[0] == 0 for gid in taken)
    assert ftl.own_region.free_block_count_on(0) == before - 3
    # Surrendered blocks leave the ownership denominator too.
    assert ftl._own_blocks_per_channel[0] == before - 3


def test_surrender_more_than_available(ftl, small_config):
    available = small_config.blocks_per_channel
    taken = ftl.surrender_free_blocks(0, available + 10)
    assert len(taken) == available


def test_channel_count_includes_harvest_regions(ftl, ssd):
    assert ftl.channel_count() == 2
    blocks = ssd.allocate_channels(9, [2])
    region = WriteRegion("gsb:test", ssd.store, gsb_id=0)
    region.add_blocks(blocks[:4])
    ftl.add_harvest_region(region)
    assert ftl.channel_count() == 3
    ftl.start_reclaim(region)
    assert region.reclaiming
    assert ftl.channel_count() == 2


def test_write_channels_reflects_harvest(ftl, ssd):
    blocks = ssd.allocate_channels(9, [3])
    region = WriteRegion("gsb:test", ssd.store, gsb_id=0)
    region.add_blocks(blocks[:4])
    ftl.add_harvest_region(region)
    assert 3 in ftl.write_channels()
    ftl.remove_harvest_region(region)
    assert 3 not in ftl.write_channels()


def test_writes_flow_into_harvest_region(ftl, ssd):
    blocks = ssd.allocate_channels(9, [3])
    region = WriteRegion("gsb:test", ssd.store, gsb_id=0)
    region.add_blocks(blocks[:4])
    ftl.add_harvest_region(region)
    ftl.write_span(0, 30)
    assert 3 in _channels_of(ftl, range(30))
    # Data written into the harvest region carries the writer's id.
    store = ssd.store
    used = [gid for gid in blocks[:4] if store.state[gid] is not BlockState.FREE]
    assert used and all(store.writer[gid] == ftl.vssd_id for gid in used)


def test_recycle_returns_blocks_to_their_own_region(ftl, ssd):
    """Recycling one harvest region leaves a co-channel sibling intact.

    Regression: victims used to be every block the vSSD wrote with the
    HBT flag set on the region's channels, so one region's recycle could
    erase the *other* region's block and re-add it to the wrong free pool.
    The sibling's blocks are as cheap to collect and come first in gid
    order, so only the gSB id keeps them out.
    """
    store = ssd.store
    blocks = ssd.allocate_channels(9, [3])
    sibling = WriteRegion("gsb:2", store, gsb_id=2)
    sibling.add_blocks(blocks[:2])
    r1 = WriteRegion("gsb:1", store, gsb_id=1)
    r1.add_blocks(blocks[2:4])
    for gid in blocks[:2]:
        store.gsb_of[gid] = 2
    for gid in blocks[2:4]:
        store.gsb_of[gid] = 1
    ftl.add_harvest_region(sibling)
    ftl.add_harvest_region(r1)
    # Exhaust both on the shared channel, invalidating everything so every
    # block becomes a zero-cost GC victim.
    for region in (sibling, r1):
        while True:
            gid = region.frontier_block(3, writer=ftl.vssd_id)
            if gid is None:
                break
            store.invalidate(gid, store.program(gid, 0))
    erased = ftl.recycle_region(r1, 3)
    assert erased > 0
    assert r1.free_block_count_on(3) == erased
    assert set(r1._free[3]) <= set(blocks[2:4])
    # The sibling's blocks are untouched: still FULL, in no free queue.
    assert sibling.free_block_count_on(3) == 0
    assert all(store.state[gid] is BlockState.FULL for gid in blocks[:2])
    assert all(store.gsb_of[gid] == 2 for gid in blocks[:2])


def test_reclaiming_region_not_written(ftl, ssd):
    blocks = ssd.allocate_channels(9, [3])
    region = WriteRegion("gsb:test", ssd.store, gsb_id=0)
    region.add_blocks(blocks[:4])
    region.reclaiming = True
    ftl.add_harvest_region(region)
    ftl.write_span(0, 30)
    assert 3 not in _channels_of(ftl, range(30))


class TestWriteRegion:
    def _region_with_blocks(self, ssd, n=4, channel=0):
        blocks = list(ssd.channel_gids(channel))[:n]
        region = WriteRegion("r", ssd.store)
        region.add_blocks(blocks)
        return region, blocks

    def test_rejects_non_free_block(self, ssd):
        ssd.store.program(0, 1)
        region = WriteRegion("r", ssd.store)
        with pytest.raises(ValueError):
            region.add_block(0)

    def test_frontier_rotates_chips(self, ssd, small_config):
        region = WriteRegion("r", ssd.store)
        region.add_blocks([0, 8])  # two chips
        first = region.frontier_block(0, writer=1)
        second = region.frontier_block(0, writer=1)
        assert first != second
        assert ssd.store.locate(first)[1] != ssd.store.locate(second)[1]

    def test_exhausted_channel_returns_none(self, ssd, small_config):
        region, blocks = self._region_with_blocks(ssd, n=1)
        for _ in range(small_config.pages_per_block):
            gid = region.frontier_block(0, writer=1)
            ssd.store.program(gid, 0)
        assert region.frontier_block(0, writer=1) is None
        assert not region.can_write(0)

    def test_version_bumps_on_exhaustion(self, ssd, small_config):
        region, _ = self._region_with_blocks(ssd, n=1)
        before = region.version
        for _ in range(small_config.pages_per_block):
            ssd.store.program(region.frontier_block(0, writer=1), 0)
        region.frontier_block(0, writer=1)
        assert region.version > before

    def test_free_pages_accounting(self, ssd, small_config):
        region, blocks = self._region_with_blocks(ssd, n=2)
        total = 2 * small_config.pages_per_block
        assert region.free_pages() == total
        ssd.store.program(region.frontier_block(0, writer=1), 0)
        assert region.free_pages() == total - 1

    def test_take_free_blocks(self, ssd):
        region, _ = self._region_with_blocks(ssd, n=4)
        taken = region.take_free_blocks(0, 2)
        assert len(taken) == 2
        assert region.free_block_count() == 2

    def test_drain_free_blocks(self, ssd):
        region, _ = self._region_with_blocks(ssd, n=4)
        drained = region.drain_free_blocks()
        assert len(drained) == 4
        assert region.free_block_count() == 0
        assert region.free_pages() == 0

    def test_membership_tracking(self, ssd):
        def queued(region):
            snap = region.snapshot()
            return {g for q in (snap["free"], snap["open"]) for gids in q.values() for g in gids}

        region, blocks = self._region_with_blocks(ssd, n=4)
        assert queued(region) == set(blocks)
        taken = region.take_free_blocks(0, 1)
        assert queued(region) == set(blocks) - set(taken)
        region.frontier_block(0, writer=1)  # opens the rest, unwritten
        drained = region.drain_free_blocks()  # open-but-unwritten included
        assert sorted(taken + drained) == sorted(blocks)
        assert queued(region) == set()

    def test_release_erased_recycles_live_harvest(self, ssd):
        store = ssd.store
        region = WriteRegion("r", store, gsb_id=0)
        region.add_blocks([0, 1])
        gid = region.frontier_block(0, writer=1)
        while store.write_ptr[gid] < store.pages_per_block:
            store.invalidate(gid, store.program(gid, 6))
        store.erase(gid)
        before = region.free_block_count()
        region.release_erased(gid)
        assert region.free_block_count() == before + 1

    def test_release_erased_reclaiming_lists_released(self, ssd):
        region = WriteRegion("r", ssd.store, gsb_id=0)
        region.add_blocks([0, 1])
        first = region.frontier_block(0, writer=1)
        second = region.frontier_block(0, writer=1)
        region.reclaiming = True
        region.release_erased(second)
        region.release_erased(first)
        assert region.take_released() == [second, first]  # release order
        assert region.take_released() == []
        assert region.free_block_count() == 0 and not region.frontier_blocks()

    def test_discard_open_present_absent_and_empty_queue(self, ssd):
        region = WriteRegion("r", ssd.store, max_open_per_channel=2)
        region.add_blocks([0, 1])
        outsider = 5
        region._discard_open(outsider)  # no open queue on the channel yet
        first = region.frontier_block(0, writer=1)
        second = region.frontier_block(0, writer=1)
        assert list(region._open[0]) == [first, second]
        region._discard_open(outsider)  # absent
        assert list(region._open[0]) == [first, second]
        region._discard_open(second)  # present, and not at the head
        assert list(region._open[0]) == [first]
        region._discard_open(first)
        region._discard_open(first)  # queue now empty
        assert not region._open[0]

    def test_snapshot_restore_round_trips_past_a_full_block(self, ssd, small_config):
        """A FULL block leaves the queues (its membership is the store's
        ``owner``/``gsb_of``); a restored region continues identically."""
        store = ssd.store
        blocks = [0, 1, 2, 3]
        region = WriteRegion("r", store, max_open_per_channel=1)
        region.add_blocks(blocks)
        gid = region.frontier_block(0, writer=1)
        for lpn in range(small_config.pages_per_block):
            store.program(gid, lpn)
        region.frontier_block(0, writer=1)  # drops the FULL head
        assert gid not in region.frontier_blocks()
        twin = WriteRegion("r", store, max_open_per_channel=1)
        twin.restore(region.snapshot())
        assert twin.snapshot() == region.snapshot()
        assert "members" not in twin.snapshot()
        assert twin.frontier_block(0, writer=1) == region.frontier_block(0, writer=1)
        assert twin.snapshot() == region.snapshot()

    def test_add_harvest_region_rejects_own_region(self, ssd):
        ftl = VssdFtl(0, ssd)
        with pytest.raises(ValueError):
            ftl.add_harvest_region(WriteRegion("r", ssd.store))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=300))
def test_page_map_invariant_under_random_writes(lpns):
    """Invariant: every mapped LPN points at a page whose block records
    that LPN, and total valid pages equals mapped pages."""
    config = SSDConfig(
        num_channels=2, chips_per_channel=2, blocks_per_chip=4, pages_per_block=8
    )
    ssd = Ssd(config, Simulator())
    ftl = VssdFtl(0, ssd)
    ftl.adopt_blocks(ssd.allocate_channels(0, [0, 1]))
    for lpn in lpns:
        ftl.write_span(lpn, 1)
    for lpn in range(len(ftl._l2p_gid)):
        location = ftl.page_location(lpn)
        if location is not None:
            assert ssd.store.page_lpns[location] == lpn
    assert sum(ssd.store.valid_count) == ftl.mapped_pages()
