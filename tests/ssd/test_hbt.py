"""Tests for the Harvested Block Table."""

from repro.ssd.hbt import HarvestedBlockTable


def test_mark_harvested_sets_flag_and_tracks(hbt, ssd):
    block = ssd.store.blocks[3]
    hbt.mark_harvested(block)
    assert block.harvested_flag is True
    assert hbt.is_harvested(block.gid)
    assert len(hbt) == 1


def test_mark_regular_clears(hbt, ssd):
    block = ssd.store.blocks[3]
    hbt.mark_harvested(block)
    hbt.mark_regular(block)
    assert block.harvested_flag is False
    assert not hbt.is_harvested(block.gid)
    assert len(hbt) == 0


def test_mark_regular_idempotent(hbt, ssd):
    block = ssd.store.blocks[0]
    hbt.mark_regular(block)
    assert len(hbt) == 0


def test_mark_many(hbt, ssd):
    blocks = ssd.store.blocks[:5]
    hbt.mark_many(blocks)
    assert len(hbt) == 5
    assert [hbt.is_harvested(b.gid) for b in ssd.store.blocks[:6]] == [True] * 5 + [False]


def test_footprint_is_one_bit_per_block(hbt):
    # The paper: at most 0.5 MB for a 1 TB SSD with 4 MB blocks.
    blocks_in_1tb = (1 << 40) // (4 << 20)
    bits = hbt.footprint_bits(blocks_in_1tb)
    assert bits / 8 / (1 << 20) <= 0.5


def test_erase_then_hbt_stays_consistent(hbt, ssd):
    """The table reads the store's column, so a bare erase clears the bit
    without a ``mark_regular``."""
    block = ssd.store.blocks[2]
    hbt.mark_harvested(block)
    block.erase()
    assert not hbt.is_harvested(block.gid)
    assert len(hbt) == 0


def test_store_restore_is_seen_by_the_table(hbt, ssd):
    snap = ssd.store.snapshot()
    hbt.mark_many(ssd.store.blocks[:3])
    ssd.store.restore(snap)
    assert len(hbt) == 0
    assert not hbt.is_harvested(0)


def test_table_without_a_store_marks_blocks_and_reads_empty(ssd):
    table = HarvestedBlockTable()
    block = ssd.store.blocks[1]
    table.mark_harvested(block)
    assert block.harvested_flag is True
    assert len(table) == 0
    assert not table.is_harvested(block.gid)
