"""Tests for the Harvested Block Table: the ``BlockStore.harvested`` column.

The ``hbt`` fixture is the device's column itself, indexed by block gid.
"""

from repro.ssd import Channel


def test_mark_harvested_sets_flag_and_tracks(hbt, ssd):
    block = ssd.store.blocks[3]
    block.harvested_flag = True
    assert hbt[block.gid] is True
    assert sum(hbt) == 1


def test_mark_regular_clears(hbt, ssd):
    block = ssd.store.blocks[3]
    block.harvested_flag = True
    block.harvested_flag = False
    assert hbt[block.gid] is False
    assert sum(hbt) == 0


def test_mark_regular_idempotent(hbt, ssd):
    block = ssd.store.blocks[0]
    block.harvested_flag = False
    assert sum(hbt) == 0


def test_mark_many(hbt, ssd):
    for block in ssd.store.blocks[:5]:
        block.harvested_flag = True
    assert sum(hbt) == 5
    assert hbt[:6] == [True] * 5 + [False]


def test_footprint_is_one_bit_per_block(hbt, ssd):
    assert len(hbt) == ssd.store.n_blocks
    # The paper: at most 0.5 MB for a 1 TB SSD with 4 MB blocks.
    blocks_in_1tb = (1 << 40) // (4 << 20)
    assert blocks_in_1tb / 8 / (1 << 20) <= 0.5


def test_erase_then_hbt_stays_consistent(hbt, ssd):
    """Erasing a block clears its bit (Figure 9)."""
    block = ssd.store.blocks[2]
    block.harvested_flag = True
    block.erase()
    assert hbt[block.gid] is False
    assert sum(hbt) == 0


def test_store_restore_is_seen_by_the_table(hbt, ssd):
    snap = ssd.store.snapshot()
    for block in ssd.store.blocks[:3]:
        block.harvested_flag = True
    ssd.store.restore(snap)
    assert sum(hbt) == 0
    assert hbt[0] is False


def test_table_without_a_store_marks_blocks_and_reads_empty(hbt, small_config, sim):
    """A standalone channel's blocks carry their bits in its private store;
    marking one leaves the device's table empty."""
    channel = Channel(0, small_config, sim)
    block = channel.blocks[1]
    block.harvested_flag = True
    assert channel.store.harvested[block.gid] is True
    assert sum(hbt) == 0
