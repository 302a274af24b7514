"""Conservation under GC churn (ROADMAP item 4a, first slice).

The determinism contract says two runs agree; these checks say the one
run is *right*: after overwrite churn that forces dozens of collections —
threshold and urgent GC, harvest-region recycling, lazy reclaim — pages,
blocks and region membership still add up.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.ssd.blockstate import NO_LPN, BlockState
from repro.ssd.ftl import OutOfSpaceError
from tests.ssd.test_gc_differential import OWNED_PAGES, PAGES_PER_BLOCK, Twin


def _churn(twin: Twin, seed: int, writes: int) -> None:
    rng = np.random.default_rng(seed)
    working_set = (OWNED_PAGES * 2) // 3
    twin.ftl.warm_fill(range(working_set))
    for _ in range(writes):
        step = ("write", int(rng.integers(0, working_set)), int(rng.integers(1, 17)), False)
        if twin.regions and rng.random() < 0.02:
            step = (str(rng.choice(["recycle", "collect", "reclaim"])), int(rng.integers(0, 3)))
        try:
            twin.apply(step)
        except OutOfSpaceError:
            pass  # a span or a collection may die part-way; it must still add up
        twin.sim.now += float(rng.choice([0.0, 120.0, 2000.0]))


def _assert_conserved(twin: Twin) -> None:
    ftl = twin.ftl
    store = ftl._store
    matrix = store.page_lpns
    # Every mapped LPN points at a page whose entry points back ...
    mapped = [(lpn, gid) for lpn, gid in enumerate(ftl._l2p_gid) if gid >= 0]
    for lpn, gid in mapped:
        assert matrix[gid, ftl._l2p_page[lpn]] == lpn
    # ... and every live page is some LPN's current copy, so the two agree.
    assert ftl.mapped_pages() == len(mapped) == int((matrix != NO_LPN).sum())
    for gid in range(store.n_blocks):
        row = matrix[gid]
        assert store.valid_count[gid] == int((row != NO_LPN).sum())
        assert not (row[store.write_ptr[gid]:] != NO_LPN).any()
        state, write_ptr = store.state[gid], store.write_ptr[gid]
        assert (
            (state is BlockState.FREE and write_ptr == 0)
            or (state is BlockState.OPEN and 0 < write_ptr < PAGES_PER_BLOCK)
            or (state is BlockState.FULL and write_ptr == PAGES_PER_BLOCK)
        )
    states = Counter(store.state)
    assert (
        states[BlockState.FREE] + states[BlockState.OPEN] + states[BlockState.FULL]
        == store.n_blocks
    )
    # No block is queued in two regions, and a region queues only its
    # members: its gSB's blocks, or (own) owned blocks in no gSB.
    regions = [ftl.own_region] + [region for region, _blocks in twin.regions]
    all_queued = []
    for region in regions:
        queued = [
            gid
            for queues in (region._free, region._open)
            for queue in queues.values()
            for gid in queue
        ]
        all_queued += queued
        assert all(store.gsb_of[gid] == region.gsb_id for gid in queued)
        if region is ftl.own_region:
            assert all(store.owner[gid] == ftl.vssd_id for gid in queued)
        free = [gid for queue in region._free.values() for gid in queue]
        assert all(store.state[gid] is BlockState.FREE for gid in free)
        assert region._free_pages == PAGES_PER_BLOCK * len(free)
    assert len(all_queued) == len(set(all_queued))
    # A gSB block is in its gSB until released home, then in none.
    released = set(twin.released)
    for region, blocks in twin.regions:
        for gid in blocks:
            assert store.gsb_of[gid] == (-1 if gid in released else region.gsb_id)
    # Own blocks written by this vSSD stay its own; released gSB blocks
    # went home erased.
    assert all(store.state[gid] is BlockState.FREE for gid in twin.released)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("harvest", [False, True])
def test_pages_blocks_and_membership_add_up_after_gc_churn(seed, harvest):
    twin = Twin(per_page_gc=False, harvest=harvest)
    _churn(twin, seed, writes=400)
    assert twin.ftl.stats.blocks_erased >= 50
    assert twin.ftl.stats.gc_writes > 0
    _assert_conserved(twin)


def test_released_blocks_can_be_written_by_their_home_again():
    """A reclaimed gSB's blocks come back FREE, in no gSB and unwritten."""
    twin = Twin(per_page_gc=False, harvest=True)
    _churn(twin, seed=11, writes=150)
    for index in range(3):
        twin.ftl._urgent_gc()  # room in the own region for the copy-back
        twin.apply(("reclaim", index))
    _assert_conserved(twin)
    store = twin.ftl._store
    for region, blocks in twin.regions:
        assert all(
            store.state[gid] is BlockState.FREE and store.writer[gid] is None
            for gid in blocks
        )
        assert all(store.gsb_of[gid] == -1 for gid in blocks)
        assert sorted(blocks) == sorted(gid for gid in twin.released if gid in blocks)
