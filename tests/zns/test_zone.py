"""Tests for the zone state machine."""

import pytest

from repro.ssd import BlockStore
from repro.zns.zone import Zone, ZoneError, ZoneState


def _store(pages=4):
    """Two channels of 2 chips x 4 blocks: channel 1 starts at gid 8."""
    return BlockStore(num_channels=2, chips_per_channel=2, blocks_per_chip=4,
                      pages_per_block=pages)


def _zone(n_blocks=2, pages=4, channel=0):
    # Alternate chips: gids 0, 4, 1, 5, ... of the channel.
    blocks = [channel * 8 + (i % 2) * 4 + i // 2 for i in range(n_blocks)]
    return Zone(0, blocks, _store(pages))


def test_new_zone_empty():
    zone = _zone()
    assert zone.state is ZoneState.EMPTY
    assert zone.write_pointer == 0
    assert zone.capacity_pages == 8
    assert zone.remaining_pages == 8


def test_zone_requires_single_channel():
    with pytest.raises(ValueError):
        Zone(0, [0, 9], _store())


def test_zone_requires_blocks():
    with pytest.raises(ValueError):
        Zone(0, [], _store())


def test_open_close_cycle():
    zone = _zone()
    zone.open()
    assert zone.state is ZoneState.OPEN
    zone.close()
    assert zone.state is ZoneState.CLOSED
    zone.open()
    assert zone.state is ZoneState.OPEN


def test_append_requires_open():
    zone = _zone()
    with pytest.raises(ZoneError):
        zone.advance(1)


def test_advance_moves_pointer_and_stripes():
    zone = _zone(n_blocks=2, pages=4)
    zone.open()
    placements = zone.advance(4)
    assert zone.write_pointer == 4
    # Pages stripe across the two blocks.
    blocks_used = [gid for gid, _page in placements]
    assert blocks_used == [0, 4, 0, 4]
    assert placements[0][1] == 0 and placements[2][1] == 1


def test_advance_past_capacity_rejected():
    zone = _zone(n_blocks=1, pages=4)
    zone.open()
    with pytest.raises(ZoneError):
        zone.advance(5)


def test_zone_fills_to_full():
    zone = _zone(n_blocks=1, pages=4)
    zone.open()
    zone.advance(4)
    assert zone.state is ZoneState.FULL
    with pytest.raises(ZoneError):
        zone.open()


def test_finish_pads_to_full():
    zone = _zone()
    zone.open()
    zone.advance(3)
    zone.finish()
    assert zone.state is ZoneState.FULL
    assert zone.remaining_pages == 0


def test_reset_returns_to_empty():
    zone = _zone()
    zone.open()
    zone.advance(2)
    zone.reset()
    assert zone.state is ZoneState.EMPTY
    assert zone.write_pointer == 0
    assert zone.resets == 1


def test_reset_of_empty_rejected():
    with pytest.raises(ZoneError):
        _zone().reset()


def test_locate_bounds():
    zone = _zone(n_blocks=2, pages=4)
    with pytest.raises(ZoneError):
        zone.locate(8)
    gid, page = zone.locate(7)
    assert (gid, page) == (4, 3)
