"""Tests for the Harvested Block Table: the ``BlockStore.harvested`` column.

The ``hbt`` fixture is the device's column itself, indexed by block gid.
"""

from repro.ssd import BlockStore, Channel


def test_mark_harvested_sets_flag_and_tracks(hbt, ssd):
    ssd.store.harvested[3] = True
    assert hbt[3] is True
    assert sum(hbt) == 1


def test_mark_regular_clears(hbt, ssd):
    ssd.store.harvested[3] = True
    ssd.store.harvested[3] = False
    assert hbt[3] is False
    assert sum(hbt) == 0


def test_mark_regular_idempotent(hbt, ssd):
    ssd.store.harvested[0] = False
    assert sum(hbt) == 0


def test_mark_many(hbt, ssd):
    for gid in range(5):
        ssd.store.harvested[gid] = True
    assert sum(hbt) == 5
    assert hbt[:6] == [True] * 5 + [False]


def test_footprint_is_one_bit_per_block(hbt, ssd):
    assert len(hbt) == ssd.store.n_blocks
    # The paper: at most 0.5 MB for a 1 TB SSD with 4 MB blocks.
    blocks_in_1tb = (1 << 40) // (4 << 20)
    assert blocks_in_1tb / 8 / (1 << 20) <= 0.5


def test_erase_then_hbt_stays_consistent(hbt, ssd):
    """Erasing a block clears its bit (Figure 9)."""
    ssd.store.harvested[2] = True
    ssd.store.erase(2)
    assert hbt[2] is False
    assert sum(hbt) == 0


def test_store_restore_is_seen_by_the_table(hbt, ssd):
    snap = ssd.store.snapshot()
    for gid in range(3):
        ssd.store.harvested[gid] = True
    ssd.store.restore(snap)
    assert sum(hbt) == 0
    assert hbt[0] is False


def test_table_without_a_store_marks_blocks_and_reads_empty(hbt, small_config, sim):
    """A standalone channel has no blocks of its own: bits set in a
    private store leave the device's table empty."""
    channel = Channel(0, small_config, sim)
    assert not hasattr(channel, "blocks") and not hasattr(channel, "store")
    private = BlockStore(1, small_config.chips_per_channel, small_config.blocks_per_chip,
                         small_config.pages_per_block)
    private.harvested[1] = True
    assert sum(private.harvested) == 1
    assert sum(hbt) == 0
