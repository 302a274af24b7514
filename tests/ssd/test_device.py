"""Tests for the shared SSD device and block allocation."""

import pytest



def test_allocate_channels_grants_all_blocks(ssd, small_config):
    blocks = ssd.allocate_channels(7, [0, 1])
    assert len(blocks) == 2 * small_config.blocks_per_channel
    assert blocks == list(range(2 * small_config.blocks_per_channel))
    assert all(ssd.store.owner[gid] == 7 for gid in blocks)


def test_allocate_channels_skips_owned_blocks(ssd):
    ssd.allocate_channels(1, [0])
    again = ssd.allocate_channels(2, [0])
    assert again == []


def test_striped_allocation_counts(ssd, small_config):
    blocks = ssd.allocate_blocks_striped(3, [0, 1, 2, 3], blocks_per_channel=4)
    assert len(blocks) == 16
    for channel_id in range(4):
        assert sum(1 for gid in blocks if ssd.store.locate(gid)[0] == channel_id) == 4


def test_striped_allocation_spreads_chips(ssd, small_config):
    blocks = ssd.allocate_blocks_striped(3, [0], blocks_per_channel=4)
    chips = {ssd.store.locate(gid)[1] for gid in blocks}
    assert len(chips) == small_config.chips_per_channel


def test_striped_allocation_insufficient_raises(ssd, small_config):
    ssd.allocate_channels(1, [0])
    with pytest.raises(ValueError):
        ssd.allocate_blocks_striped(2, [0], blocks_per_channel=1)


def test_two_tenants_share_a_channel(ssd, small_config):
    half = small_config.blocks_per_channel // 2
    a = ssd.allocate_blocks_striped(1, [0], blocks_per_channel=half)
    b = ssd.allocate_blocks_striped(2, [0], blocks_per_channel=half)
    assert {ssd.store.owner[gid] for gid in a} == {1}
    assert {ssd.store.owner[gid] for gid in b} == {2}


def test_release_all(ssd):
    ssd.allocate_channels(1, [0, 1])
    released = ssd.release_all(1)
    assert released > 0
    assert ssd.channels_owned_by(1) == []


def test_channels_owned_by(ssd):
    ssd.allocate_channels(5, [2, 3])
    assert ssd.channels_owned_by(5) == [2, 3]


def test_free_blocks_of(ssd, small_config):
    ssd.allocate_channels(1, [0])
    free = ssd.free_blocks_of(1, 0)
    assert len(free) == small_config.blocks_per_channel


def test_total_bandwidth_scales_with_channels(ssd, small_config):
    assert ssd.total_write_bandwidth_mbps == pytest.approx(
        small_config.num_channels * small_config.channel_write_bandwidth_mbps
    )


def test_any_in_gc_scoped_to_channels(ssd):
    ssd.channels[2].occupy_for_gc(0, migrate_reads=1, erases=1)
    assert ssd.any_in_gc([2]) is True
    assert ssd.any_in_gc([0, 1]) is False
    assert ssd.any_in_gc() is True
