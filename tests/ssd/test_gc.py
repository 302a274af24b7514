"""Tests for garbage collection: triggers, victim priority, copy-back."""

import pytest

from repro.config import SSDConfig
from repro.sim import Simulator
from repro.ssd import Ssd, VssdFtl
from repro.ssd.region import WriteRegion
from tests.ssd.span_oracle import write_page
from repro.ssd.geometry import BlockState


@pytest.fixture
def gc_setup():
    config = SSDConfig(
        num_channels=2, chips_per_channel=2, blocks_per_chip=4, pages_per_block=8
    )
    sim = Simulator()
    ssd = Ssd(config, sim)
    ftl = VssdFtl(0, ssd)
    ftl.adopt_blocks(ssd.allocate_channels(0, [0, 1]))
    return config, sim, ssd, ftl


def _overwrite(ftl, working_set, writes):
    for i in range(writes):
        ftl.write_span(i % working_set, 1)


def test_gc_triggers_under_overwrite(gc_setup):
    config, sim, ssd, ftl = gc_setup
    total_pages = 2 * config.blocks_per_channel * config.pages_per_block
    _overwrite(ftl, working_set=total_pages // 4, writes=total_pages * 2)
    assert ftl.stats.gc_runs > 0
    assert ftl.stats.blocks_erased > 0


def test_gc_keeps_device_writable_indefinitely(gc_setup):
    config, sim, ssd, ftl = gc_setup
    total_pages = 2 * config.blocks_per_channel * config.pages_per_block
    # Four full device overwrites of a half-size working set.
    _overwrite(ftl, working_set=total_pages // 2, writes=total_pages * 4)
    assert ftl.mapped_pages() == total_pages // 2


def test_gc_preserves_data(gc_setup):
    config, sim, ssd, ftl = gc_setup
    total_pages = 2 * config.blocks_per_channel * config.pages_per_block
    ws = total_pages // 4
    _overwrite(ftl, working_set=ws, writes=total_pages * 3)
    # Every mapped page still resolves and block entries agree.
    for lpn in range(ws):
        pointer = ftl.page_location(lpn)
        assert pointer is not None
        assert pointer.block.page_lpns[pointer.page] == lpn


def test_write_amplification_reported(gc_setup):
    config, sim, ssd, ftl = gc_setup
    total_pages = 2 * config.blocks_per_channel * config.pages_per_block
    _overwrite(ftl, working_set=total_pages // 3, writes=total_pages * 3)
    assert ftl.stats.write_amplification >= 1.0
    assert ftl.stats.gc_writes == ftl.stats.gc_reads


def test_run_gc_skips_all_valid_regular_blocks(gc_setup):
    config, sim, ssd, ftl = gc_setup
    # Fill one block fully with unique (still valid) data.
    ftl.warm_fill(range(config.pages_per_block))
    erased = ftl.run_gc(0)
    # Nothing worth collecting: all-valid regular blocks are skipped.
    mapped_before = ftl.mapped_pages()
    assert mapped_before == config.pages_per_block
    assert erased == 0


def test_victim_priority_prefers_hbt_flagged(gc_setup):
    config, sim, ssd, ftl = gc_setup
    # Create FULL blocks (striping opens 4 frontiers, so write enough to
    # fill several blocks): one regular with few valid pages, one flagged.
    ftl.warm_fill(range(config.pages_per_block * 8))
    full_blocks = [
        b for ch in ssd.channels for b in ch.blocks if b.state is BlockState.FULL
    ]
    assert len(full_blocks) >= 2
    regular, flagged = full_blocks[0], full_blocks[1]
    # Invalidate most of the regular block (prime victim by valid count).
    for page, lpn in regular.valid_lpns()[:-1]:
        ftl.write_span(lpn, 1)
    ftl.hbt.mark_harvested(flagged)
    victim = ftl._select_own_victim(flagged.channel_id)
    if victim is not None and victim.channel_id == flagged.channel_id:
        assert victim.harvested_flag or victim is flagged


def test_gc_charges_channel_time(gc_setup):
    config, sim, ssd, ftl = gc_setup
    total_pages = 2 * config.blocks_per_channel * config.pages_per_block
    _overwrite(ftl, working_set=total_pages // 3, writes=total_pages * 3)
    agg = ssd.aggregate_stats()
    assert agg.gc_busy_us > 0
    assert agg.gc_erases == ftl.stats.blocks_erased


def test_recycle_region_returns_blocks_to_gsb():
    config = SSDConfig(
        num_channels=3, chips_per_channel=2, blocks_per_chip=4, pages_per_block=8
    )
    ssd = Ssd(config, Simulator())
    ftl = VssdFtl(0, ssd)
    ftl.adopt_blocks(ssd.allocate_channels(0, [0, 1]))
    donor_blocks = ssd.allocate_channels(9, [2])
    # Build a harvest region on channel 2 (owned by 9, written by 0).
    region = WriteRegion("gsb:r", kind="harvest")
    usable = donor_blocks[:2]
    for b in usable:
        ftl.hbt.mark_harvested(b)
    region.add_blocks(usable)
    ftl.add_harvest_region(region)
    # Fill the region with data, then overwrite so it can be recycled.
    lpns = list(range(10_000, 10_000 + 4 * config.pages_per_block))
    wrote_region = False
    for lpn in lpns * 3:
        _done, pages_by_channel = ftl.write_span(lpn, 1)
        wrote_region = wrote_region or 2 in pages_by_channel
    assert wrote_region
    # Recycled blocks stay in the gSB: flagged harvested or freshly free.
    assert all(b.harvested_flag or b.is_free for b in usable)
    # And the region itself either has free blocks or open frontiers.
    assert region.can_write(2) or region.free_block_count() >= 0


def test_gc_victims_exclude_frontier_blocks(gc_setup):
    config, sim, ssd, ftl = gc_setup
    ftl.warm_fill(range(4))  # opens frontier blocks
    frontier_ids = ftl.own_region.frontier_blocks()
    victim = ftl._select_own_victim(0)
    if victim is not None:
        assert id(victim) not in frontier_ids


def test_urgent_gc_recovers_space(gc_setup):
    config, sim, ssd, ftl = gc_setup
    total_pages = 2 * config.blocks_per_channel * config.pages_per_block
    ws = int(total_pages * 0.7)
    # Consume nearly everything, then overwrite: urgent GC must reclaim.
    for i in range(int(total_pages * 1.5)):
        ftl.write_span(i % ws, 1)
    assert ftl.mapped_pages() == ws


@pytest.mark.parametrize("path", ["write_page", "write_span"])
def test_overwriting_an_lpn_that_urgent_gc_relocates(path):
    """The prior mapping is read with the frontier in hand, not before.

    Five 4-page blocks, all full: one all-invalid, one holding LPNs 6 and
    7 beside two stale pages.  Overwriting LPN 6 finds no frontier, and
    urgent GC erases the first block, copies 6 and 7 into it and erases
    their old block — so a pointer to LPN 6 taken before picking names an
    erased page ("double invalidate", or a live page lost had the block
    been reopened).
    """
    config = SSDConfig(
        num_channels=1, chips_per_channel=1, blocks_per_chip=5, pages_per_block=4
    )
    ssd = Ssd(config, Simulator())
    ftl = VssdFtl(0, ssd)
    ftl.adopt_blocks(ssd.allocate_channels(0, [0]))
    ftl.warm_fill(list(range(12)) + [0, 1, 2, 3] + [4, 5, 12, 13])
    assert ftl.free_pages() == 0
    home = ftl.page_location(6).block
    assert home.valid_lpns() == [(2, 6), (3, 7)]
    if path == "write_page":
        write_page(ftl, 6)  # the reference must get this right too
    else:
        ftl.write_span(6, 1)
    assert home.is_free and ftl.stats.gc_writes == 2
    pointer = ftl.page_location(6)
    assert pointer.block.page_lpns[pointer.page] == 6
    assert ftl.mapped_pages() == 14
    assert sum(block.valid_count for block in ssd.channels[0].blocks) == 14
