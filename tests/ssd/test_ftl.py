"""Tests for the FTL: mapping, striping, regions, capacity."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SSDConfig
from repro.sim import Simulator
from repro.ssd import Ssd, VssdFtl
from repro.ssd.ftl import OutOfSpaceError
from repro.ssd.region import WriteRegion
from tests.test_hotpath_equivalence import _ftl_state


def test_write_then_read_same_page(ftl):
    ftl.write_span(42, 1)
    pointer = ftl.page_location(42)
    assert pointer is not None
    _done, pages_by_channel = ftl.read_span(42, 1)
    assert pages_by_channel == {pointer.block.channel_id: 1}


def test_overwrite_invalidates_old_page(ftl):
    ftl.write_span(7, 1)
    old = ftl.page_location(7)
    ftl.write_span(7, 1)
    new = ftl.page_location(7)
    assert new != old
    assert old.block.page_lpns[old.page] is None


def test_writes_stripe_across_channels(ftl):
    _done, pages_by_channel = ftl.write_span(0, 16)
    assert set(pages_by_channel) == {0, 1}


def test_writes_stripe_across_chips(ftl, ssd):
    for lpn in range(16):
        ftl.write_span(lpn, 1)
    chips = {ftl.page_location(lpn).block.chip_id for lpn in range(16)}
    assert len(chips) == 2


def test_unmapped_read_serviced(ftl):
    done, _pages_by_channel = ftl.read_span(999, 1)
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
    assert ftl.page_location(5).block.page_lpns[ftl.page_location(5).page] == 5


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
    assert all(b.channel_id == 0 for b in taken)
    assert ftl.own_region.free_block_count_on(0) == before - 3
    # Surrendered blocks leave the ownership denominator too.
    assert ftl._own_blocks_per_channel[0] == before - 3


def test_surrender_more_than_available(ftl, small_config):
    available = small_config.blocks_per_channel
    taken = ftl.surrender_free_blocks(0, available + 10)
    assert len(taken) == available


def test_channel_count_includes_harvest_regions(ftl, ssd, hbt):
    assert ftl.channel_count() == 2
    blocks = ssd.allocate_channels(9, [2])
    region = WriteRegion("gsb:test", kind="harvest")
    region.add_blocks(blocks[:4])
    ftl.add_harvest_region(region)
    assert ftl.channel_count() == 3
    region.reclaiming = True
    assert ftl.channel_count() == 2


def test_write_channels_reflects_harvest(ftl, ssd):
    blocks = ssd.allocate_channels(9, [3])
    region = WriteRegion("gsb:test", kind="harvest")
    region.add_blocks(blocks[:4])
    ftl.add_harvest_region(region)
    assert 3 in ftl.write_channels()
    ftl.remove_harvest_region(region)
    assert 3 not in ftl.write_channels()


def test_writes_flow_into_harvest_region(ftl, ssd):
    blocks = ssd.allocate_channels(9, [3])
    region = WriteRegion("gsb:test", kind="harvest")
    region.add_blocks(blocks[:4])
    ftl.add_harvest_region(region)
    _done, pages_by_channel = ftl.write_span(0, 30)
    assert 3 in pages_by_channel
    # Data written into the harvest region carries the writer's id.
    used = [b for b in blocks[:4] if not b.is_free]
    assert used and all(b.writer == ftl.vssd_id for b in used)


def test_recycle_returns_blocks_to_their_own_region(ftl, ssd, hbt):
    """Recycling one harvest region leaves a co-channel sibling intact.

    Regression: victims used to be every block the vSSD wrote with the
    HBT flag set on the region's channels, so one region's recycle could
    erase the *other* region's block and re-add it to the wrong free pool.
    """
    blocks = ssd.allocate_channels(9, [3])
    r1 = WriteRegion("gsb:1", kind="harvest")
    r1.add_blocks(blocks[:2])
    r2 = WriteRegion("gsb:2", kind="harvest")
    r2.add_blocks(blocks[2:4])
    for block in blocks[:4]:
        hbt.mark_harvested(block)
    ftl.add_harvest_region(r1)
    ftl.add_harvest_region(r2)
    # Exhaust r1 on the shared channel, then invalidate everything so its
    # blocks become zero-cost GC victims.
    while True:
        block = r1.frontier_block(3, writer=ftl.vssd_id)
        if block is None:
            break
        block.invalidate(block.program(0))
    erased = ftl.recycle_region(r1, 3)
    assert erased > 0
    assert r1.free_block_count_on(3) == erased
    assert r2.free_block_count_on(3) == 2  # sibling untouched
    assert all(r1.contains(b) for b in blocks[:2])
    assert all(r2.contains(b) for b in blocks[2:4])


def test_reclaiming_region_not_written(ftl, ssd):
    blocks = ssd.allocate_channels(9, [3])
    region = WriteRegion("gsb:test", kind="harvest")
    region.add_blocks(blocks[:4])
    region.reclaiming = True
    ftl.add_harvest_region(region)
    _done, pages_by_channel = ftl.write_span(0, 30)
    assert 3 not in pages_by_channel


class TestWriteRegion:
    def _region_with_blocks(self, ssd, n=4, channel=0):
        blocks = [b for b in ssd.channels[channel].blocks[:n]]
        region = WriteRegion("r", kind="own")
        region.add_blocks(blocks)
        return region, blocks

    def test_rejects_non_free_block(self, ssd):
        block = ssd.channels[0].blocks[0]
        block.program(1)
        region = WriteRegion("r")
        with pytest.raises(ValueError):
            region.add_block(block)

    def test_frontier_rotates_chips(self, ssd, small_config):
        blocks = [ssd.channels[0].blocks[i] for i in (0, 8)]  # two chips
        region = WriteRegion("r")
        region.add_blocks(blocks)
        first = region.frontier_block(0, writer=1)
        second = region.frontier_block(0, writer=1)
        assert first is not second
        assert first.chip_id != second.chip_id

    def test_exhausted_channel_returns_none(self, ssd, small_config):
        region, blocks = self._region_with_blocks(ssd, n=1)
        for _ in range(small_config.pages_per_block):
            block = region.frontier_block(0, writer=1)
            block.program(0)
        assert region.frontier_block(0, writer=1) is None
        assert not region.can_write(0)

    def test_version_bumps_on_exhaustion(self, ssd, small_config):
        region, _ = self._region_with_blocks(ssd, n=1)
        before = region.version
        for _ in range(small_config.pages_per_block):
            region.frontier_block(0, writer=1).program(0)
        region.frontier_block(0, writer=1)
        assert region.version > before

    def test_free_pages_accounting(self, ssd, small_config):
        region, blocks = self._region_with_blocks(ssd, n=2)
        total = 2 * small_config.pages_per_block
        assert region.free_pages() == total
        region.frontier_block(0, writer=1).program(0)
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
        region, blocks = self._region_with_blocks(ssd, n=4)
        assert all(region.contains(b) for b in blocks)
        taken = region.take_free_blocks(0, 2)
        assert not any(region.contains(b) for b in taken)
        drained = region.drain_free_blocks()
        assert not any(region.contains(b) for b in drained)

    def test_release_erased_recycles_live_harvest(self, ssd):
        blocks = [b for b in ssd.channels[0].blocks[:2]]
        region = WriteRegion("r", kind="harvest")
        region.add_blocks(blocks)
        block = region.frontier_block(0, writer=1)
        page = block.program(5)
        block.invalidate(page)
        for _ in range(block.free_pages):
            block.program(6)
            block.invalidate(block.write_ptr - 1)
        block.erase()
        before = region.free_block_count()
        region.release_erased(block)
        assert region.free_block_count() == before + 1

    def test_release_erased_reclaiming_calls_back(self, ssd):
        returned = []
        blocks = [b for b in ssd.channels[0].blocks[:1]]
        region = WriteRegion("r", kind="harvest", on_block_released=returned.append)
        region.add_blocks(blocks)
        block = region.frontier_block(0, writer=1)
        region.reclaiming = True
        region.release_erased(block)
        assert returned == [block]

    def test_discard_open_present_absent_and_empty_queue(self, ssd, monkeypatch):
        region = WriteRegion("r", max_open_per_channel=2)
        region.add_blocks(ssd.channels[0].blocks[:2])
        outsider = ssd.channels[0].blocks[5]
        # A miss must not cost a repr of the block (what ``deque.remove``
        # pays to build its ValueError): GC discards per erased block.
        monkeypatch.setattr(
            type(outsider), "__repr__", lambda self: pytest.fail("formatted a block")
        )
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

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WriteRegion("r", kind="weird")


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
    for lpn, pointer in ftl.page_map.items():
        assert pointer.block.page_lpns[pointer.page] == lpn
    total_valid = sum(
        b.valid_count for ch in ssd.channels for b in ch.blocks
    )
    assert total_valid == ftl.mapped_pages()
