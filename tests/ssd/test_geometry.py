"""Tests for the block layout and the per-block ``BlockStore`` methods.

A block is its gid, ``channel * blocks_per_channel + chip *
blocks_per_chip + index``, into the device's columns.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.config import SSDConfig
from repro.sim import Simulator
from repro.ssd import BlockState, BlockStore, Ssd
from repro.ssd.blockstate import NO_LPN

#: Block (channel 1, chip 2, index 3) of a 2 x 3 x 4 device.
GID = 1 * 12 + 2 * 4 + 3


@pytest.fixture
def store():
    return BlockStore(num_channels=2, chips_per_channel=3, blocks_per_chip=4, pages_per_block=8)


def test_new_block_is_free(store):
    assert store.state[GID] is BlockState.FREE
    assert store.valid_count[GID] == 0
    assert store.write_ptr[GID] == 0
    assert store.owner[GID] is None and store.writer[GID] is None


def test_program_is_sequential(store):
    assert store.program(GID, 100) == 0
    assert store.program(GID, 101) == 1
    assert store.state[GID] is BlockState.OPEN
    assert store.page_lpns[GID, :2].tolist() == [100, 101]


def test_program_fills_block(store):
    for lpn in range(8):
        store.program(GID, lpn)
    assert store.state[GID] is BlockState.FULL
    assert store.write_ptr[GID] == store.pages_per_block


def test_program_full_block_raises(store):
    for lpn in range(8):
        store.program(GID, lpn)
    with pytest.raises(RuntimeError, match=r"block \(1, 2, 3\) is full"):
        store.program(GID, 99)


def test_program_touches_only_its_block(store):
    store.program(GID, 5)
    assert sum(store.valid_count) == 1
    assert sum(store.write_ptr) == 1
    assert (store.page_lpns != NO_LPN).sum() == 1


def test_invalidate_reduces_valid_count(store):
    page = store.program(GID, 7)
    store.invalidate(GID, page)
    assert store.valid_count[GID] == 0
    assert store.page_lpns[GID, page] == NO_LPN


def test_double_invalidate_raises(store):
    page = store.program(GID, 7)
    store.invalidate(GID, page)
    with pytest.raises(RuntimeError, match=r"double invalidate of page 0 in block \(1, 2, 3\)"):
        store.invalidate(GID, page)


def test_valid_lpns_lists_live_pages(store):
    p0 = store.program(GID, 10)
    store.program(GID, 11)
    store.invalidate(GID, p0)
    assert store.valid_lpns(GID) == [(1, 11)]


def test_valid_lpns_skips_interleaved_invalid_pages_and_stops_at_write_ptr(store):
    for lpn in (10, 11, 12, 13, 14, 15):
        store.program(GID, lpn)
    for page in (0, 2, 3, 5):
        store.invalidate(GID, page)
    live = store.valid_lpns(GID)
    assert live == [(1, 11), (4, 14)]
    # Plain ints: the pairs go into list columns and f-strings.
    assert {type(value) for pair in live for value in pair} == {int}
    store.invalidate(GID, 1)
    store.invalidate(GID, 4)
    assert store.valid_lpns(GID) == []


def test_erase_requires_no_valid_data(store):
    store.program(GID, 5)
    with pytest.raises(RuntimeError, match=r"erasing block \(1, 2, 3\) with 1 valid pages"):
        store.erase(GID)


def test_erase_resets_block(store):
    page = store.program(GID, 5)
    store.invalidate(GID, page)
    store.owner[GID] = 3
    store.writer[GID] = 42
    store.gsb_of[GID] = 5
    store.erase(GID)
    assert store.state[GID] is BlockState.FREE
    assert store.write_ptr[GID] == 0
    assert store.writer[GID] is None
    assert store.erase_count[GID] == 1
    # Ownership is the allocator's, and gSB membership the gSB's, not erase's.
    assert store.owner[GID] == 3
    assert store.gsb_of[GID] == 5


def test_block_id_tuple(store):
    assert store.locate(GID) == (1, 2, 3)


@pytest.mark.parametrize(
    "config",
    [
        SSDConfig(),
        SSDConfig(num_channels=3, chips_per_channel=2, blocks_per_chip=5, pages_per_block=4),
    ],
    ids=["default", "3x2x5"],
)
def test_layout_round_trips_and_names_the_chip_busy_slot(config):
    """Every gid decodes to its (channel, chip, index), and ``gid //
    blocks_per_chip`` is the ``chip_busy`` slot a program on that chip
    charges."""
    ssd = Ssd(config, Simulator())
    store = ssd.store
    bpchip = config.blocks_per_chip
    assert store.n_blocks == config.num_channels * config.chips_per_channel * bpchip
    gid = 0
    for channel in range(config.num_channels):
        assert list(ssd.channel_gids(channel)) == list(
            range(gid, gid + config.chips_per_channel * bpchip)
        )
        for chip in range(config.chips_per_channel):
            for index in range(bpchip):
                assert store.locate(gid) == (channel, chip, index)
                assert gid // store.blocks_per_channel == channel
                gid += 1
    chip_busy = ssd.arrays.chip_busy
    for gid in range(0, store.n_blocks, bpchip):
        channel, chip, _index = store.locate(gid)
        before = list(chip_busy)
        ssd.channels[channel].service_write(chip)
        changed = [slot for slot, (a, b) in enumerate(zip(before, chip_busy)) if a != b]
        assert changed == [gid // bpchip]


@given(st.lists(st.integers(min_value=0, max_value=999), min_size=1, max_size=16))
def test_valid_count_matches_live_pages(lpns):
    """Invariant: valid_count == number of non-empty page entries."""
    store = BlockStore(num_channels=1, chips_per_channel=1, blocks_per_chip=1, pages_per_block=16)
    for lpn in lpns:
        store.program(0, lpn)
    live = int((store.page_lpns[0] != NO_LPN).sum())
    assert store.valid_count[0] == live == len(lpns)
    # Invalidate every other written page and recheck.
    for page in range(0, len(lpns), 2):
        store.invalidate(0, page)
    live = int((store.page_lpns[0] != NO_LPN).sum())
    assert store.valid_count[0] == live == len(store.valid_lpns(0))


def test_a_hoisted_page_matrix_view_sees_every_restore(store, monkeypatch, tmp_path):
    """``VssdFtl`` reads the page matrix through ``page_lpns.data``, taken
    once: a restore copies into the one buffer, so the view never
    detaches — neither under ``BlockStore.restore`` nor when a build
    restores a warm snapshot from the store."""
    view = store.page_lpns.data
    assert view.obj is store.page_lpns and view.shape == store.page_lpns.shape
    store.program(GID, 100)
    snap = store.snapshot()
    store.program(GID, 101)
    assert view[GID, 1] == 101
    store.restore(snap)
    assert (view[GID, 0], view[GID, 1]) == (100, NO_LPN)

    from repro.harness import snapshots
    from repro.harness.experiment import Experiment
    from repro.parallel.matrix import plans_for

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_SNAPSHOTS", raising=False)
    config = SSDConfig(
        num_channels=4, chips_per_channel=2, blocks_per_chip=16,
        pages_per_block=32, min_superblock_blocks=4,
    )

    def probe():
        return Experiment(plans_for(("ycsb", "terasort")), "hardware", ssd_config=config, seed=3)

    snapshots.clear_memory_cache()
    try:
        warm = probe().build()
        captured = snapshots.capture_experiment(warm)
        snapshots.cache_put(snapshots.warm_cache_key(warm, warm._plan_allocation()), captured)
        snapshots.reset_stats()
        restored = probe().build()
        assert snapshots.STATS["hits"] == 1
    finally:
        snapshots.clear_memory_cache()
    matrix = restored.virt.ssd.store.page_lpns
    assert np.array_equal(matrix, captured["store"]["page_lpns"])
    for plan in restored.plans:
        ftl = restored.virt.vssd_by_name(plan.name).ftl
        assert ftl._page_lpns.obj is matrix
        assert np.array_equal(np.asarray(ftl._page_lpns), matrix)
    warm.close()
    restored.close()
