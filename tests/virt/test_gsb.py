"""Tests for ghost superblocks and the gSB pool."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.virt import GhostSuperblock, GsbPool

#: Blocks per channel of the device the gSBs' gids index.
BPC = 16


def _blocks(n=4, channel=0):
    return [channel * BPC + i for i in range(n)]


def _gsb(n_chls=1, home=0, n_blocks=4):
    return GhostSuperblock(
        n_chls=n_chls, blocks=_blocks(n_blocks), home_vssd=home, blocks_per_channel=BPC
    )


class TestGhostSuperblock:
    def test_metadata_defaults(self):
        gsb = _gsb()
        # Figure 7's fields: n_chls, capacity, in_use, home, harvester.
        assert gsb.n_chls == 1
        assert gsb.capacity_blocks == 4
        assert gsb.in_use is False
        assert gsb.home_vssd == 0
        assert gsb.harvest_vssd is None

    def test_capacity_bytes(self):
        gsb = _gsb(n_blocks=3)
        assert gsb.capacity_bytes(block_size=1024) == 3072

    def test_channel_ids(self):
        blocks = _blocks(2, channel=3) + _blocks(2, channel=1)
        gsb = GhostSuperblock(n_chls=2, blocks=blocks, home_vssd=0, blocks_per_channel=BPC)
        assert gsb.channel_ids == [1, 3]
        # A channel drops out once its last block leaves the gSB.
        gsb.blocks.remove(3 * BPC)
        assert gsb.channel_ids == [1, 3]
        gsb.blocks.remove(3 * BPC + 1)
        assert gsb.channel_ids == [1]

    def test_requires_blocks(self):
        with pytest.raises(ValueError):
            GhostSuperblock(n_chls=1, blocks=[], home_vssd=0, blocks_per_channel=BPC)

    def test_requires_channels(self):
        with pytest.raises(ValueError):
            GhostSuperblock(n_chls=0, blocks=_blocks(), home_vssd=0, blocks_per_channel=BPC)


class TestGsbPool:
    def test_exact_fit_preferred(self):
        pool = GsbPool(max_channels=8)
        small = _gsb(n_chls=1)
        exact = _gsb(n_chls=3)
        big = _gsb(n_chls=5)
        for gsb in (small, exact, big):
            pool.insert(gsb)
        assert pool.acquire(3) is exact

    def test_smaller_before_larger(self):
        # Section 3.6.2: search smaller lists first, then larger.
        pool = GsbPool(max_channels=8)
        small = _gsb(n_chls=2)
        big = _gsb(n_chls=6)
        pool.insert(small)
        pool.insert(big)
        assert pool.acquire(4) is small

    def test_larger_as_last_resort(self):
        pool = GsbPool(max_channels=8)
        big = _gsb(n_chls=6)
        pool.insert(big)
        assert pool.acquire(2) is big

    def test_own_gsbs_excluded(self):
        # A vSSD may not harvest its own resources.
        pool = GsbPool(max_channels=4)
        mine = _gsb(n_chls=2, home=7)
        pool.insert(mine)
        assert pool.acquire(2, exclude_home=7) is None
        assert pool.acquire(2, exclude_home=8) is mine

    def test_newest_first_within_list(self):
        # New gSBs are inserted at the head of their list.
        pool = GsbPool(max_channels=4)
        old = _gsb(n_chls=2)
        new = _gsb(n_chls=2)
        pool.insert(old)
        pool.insert(new)
        assert pool.acquire(2) is new

    def test_in_use_gsb_rejected(self):
        pool = GsbPool(max_channels=4)
        gsb = _gsb()
        gsb.in_use = True
        with pytest.raises(ValueError):
            pool.insert(gsb)

    def test_oversized_gsb_rejected(self):
        pool = GsbPool(max_channels=2)
        with pytest.raises(ValueError):
            pool.insert(_gsb(n_chls=3))

    def test_remove(self):
        pool = GsbPool(max_channels=4)
        gsb = _gsb(n_chls=2)
        pool.insert(gsb)
        assert pool.remove(gsb) is True
        assert pool.remove(gsb) is False
        assert pool.available() == 0

    def test_available_counts(self):
        pool = GsbPool(max_channels=4)
        pool.insert(_gsb(n_chls=1))
        pool.insert(_gsb(n_chls=1))
        pool.insert(_gsb(n_chls=3))
        assert pool.available() == 3
        assert pool.available(1) == 2
        assert pool.available(2) == 0

    def test_request_clamped_to_pool_bounds(self):
        pool = GsbPool(max_channels=4)
        gsb = _gsb(n_chls=4)
        pool.insert(gsb)
        assert pool.acquire(99) is gsb

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=20),
        want=st.integers(min_value=1, max_value=8),
    )
    def test_best_fit_property(self, sizes, want):
        """Property: acquire returns an exact match when one exists,
        otherwise the largest smaller gSB, otherwise the smallest larger."""
        pool = GsbPool(max_channels=8)
        gsbs = [_gsb(n_chls=s) for s in sizes]
        for gsb in gsbs:
            pool.insert(gsb)
        got = pool.acquire(want)
        assert got is not None
        if want in sizes:
            assert got.n_chls == want
        elif any(s < want for s in sizes):
            assert got.n_chls == max(s for s in sizes if s < want)
        else:
            assert got.n_chls == min(sizes)
