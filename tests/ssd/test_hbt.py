"""Tests for the Harvested Block Table: the sign of ``BlockStore.gsb_of``.

The ``hbt`` fixture is the device's column itself, indexed by block gid:
the owning gSB's id, or -1.  A block's HBT bit is ``gsb_of[gid] >= 0``.
"""

from repro.ssd import BlockStore, Channel


def _marked(column) -> int:
    """Blocks whose HBT bit is set."""
    return sum(gsb >= 0 for gsb in column)


def test_mark_harvested_sets_flag_and_tracks(hbt, ssd):
    ssd.store.gsb_of[3] = 7
    assert hbt[3] == 7
    assert _marked(hbt) == 1


def test_mark_regular_clears(hbt, ssd):
    ssd.store.gsb_of[3] = 7
    ssd.store.gsb_of[3] = -1
    assert hbt[3] == -1
    assert _marked(hbt) == 0


def test_mark_regular_idempotent(hbt, ssd):
    ssd.store.gsb_of[0] = -1
    assert _marked(hbt) == 0


def test_mark_many(hbt, ssd):
    for gid in range(5):
        ssd.store.gsb_of[gid] = gid % 2
    assert _marked(hbt) == 5
    assert hbt[:6] == [0, 1, 0, 1, 0, -1]


def test_footprint_is_one_bit_per_block(hbt, ssd):
    # One entry per block; the paper's table is its sign bit.
    assert len(hbt) == ssd.store.n_blocks
    # The paper: at most 0.5 MB for a 1 TB SSD with 4 MB blocks.
    blocks_in_1tb = (1 << 40) // (4 << 20)
    assert blocks_in_1tb / 8 / (1 << 20) <= 0.5


def test_erase_then_hbt_stays_consistent(hbt, ssd):
    """Erasing a block leaves its gSB alone: a live gSB recycles the
    erased block, and a reclaiming one clears the entry when it sends
    the block home."""
    ssd.store.gsb_of[2] = 4
    ssd.store.erase(2)
    assert hbt[2] == 4
    assert _marked(hbt) == 1


def test_store_restore_is_seen_by_the_table(hbt, ssd):
    snap = ssd.store.snapshot()
    for gid in range(3):
        ssd.store.gsb_of[gid] = 0
    ssd.store.restore(snap)
    assert _marked(hbt) == 0
    assert hbt[0] == -1


def test_table_without_a_store_marks_blocks_and_reads_empty(hbt, small_config, sim):
    """A standalone channel has no blocks of its own: bits set in a
    private store leave the device's table empty."""
    channel = Channel(0, small_config, sim)
    assert not hasattr(channel, "blocks") and not hasattr(channel, "store")
    private = BlockStore(1, small_config.chips_per_channel, small_config.blocks_per_chip,
                         small_config.pages_per_block)
    private.gsb_of[1] = 0
    assert _marked(private.gsb_of) == 1
    assert _marked(hbt) == 0
