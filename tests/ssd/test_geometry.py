"""Tests for flash blocks and page pointers."""

import pytest
from hypothesis import given, strategies as st

from repro.ssd.geometry import BlockState, FlashBlock, PagePointer


@pytest.fixture
def block():
    return FlashBlock(channel_id=1, chip_id=2, index=3, pages_per_block=8)


def test_new_block_is_free(block):
    assert block.state is BlockState.FREE
    assert block.valid_count == 0
    assert block.free_pages == 8


def test_program_is_sequential(block):
    assert block.program(100) == 0
    assert block.program(101) == 1
    assert block.state is BlockState.OPEN


def test_program_fills_block(block):
    for lpn in range(8):
        block.program(lpn)
    assert block.state is BlockState.FULL
    assert block.free_pages == 0


def test_program_full_block_raises(block):
    for lpn in range(8):
        block.program(lpn)
    with pytest.raises(RuntimeError):
        block.program(99)


def test_invalidate_reduces_valid_count(block):
    page = block.program(7)
    block.invalidate(page)
    assert block.valid_count == 0
    assert block.page_lpns[page] is None


def test_double_invalidate_raises(block):
    page = block.program(7)
    block.invalidate(page)
    with pytest.raises(RuntimeError):
        block.invalidate(page)


def test_valid_lpns_lists_live_pages(block):
    p0 = block.program(10)
    block.program(11)
    block.invalidate(p0)
    assert block.valid_lpns() == [(1, 11)]


def test_valid_lpns_skips_interleaved_invalid_pages_and_stops_at_write_ptr(block):
    for lpn in (10, 11, 12, 13, 14, 15):
        block.program(lpn)
    for page in (0, 2, 3, 5):
        block.invalidate(page)
    live = block.valid_lpns()
    assert live == [(1, 11), (4, 14)]
    # Plain ints: the pairs go into list columns and f-strings.
    assert {type(value) for pair in live for value in pair} == {int}
    block.invalidate(1)
    block.invalidate(4)
    assert block.valid_lpns() == []


def test_erase_requires_no_valid_data(block):
    block.program(5)
    with pytest.raises(RuntimeError):
        block.erase()


def test_erase_resets_block(block):
    page = block.program(5)
    block.invalidate(page)
    block.writer = 42
    block.harvested_flag = True
    block.erase()
    assert block.state is BlockState.FREE
    assert block.write_ptr == 0
    assert block.writer is None
    assert block.harvested_flag is False
    assert block.erase_count == 1


def test_block_id_tuple(block):
    assert block.block_id == (1, 2, 3)


def test_page_pointer_equality(block):
    a = PagePointer(block, 3)
    b = PagePointer(block, 3)
    c = PagePointer(block, 4)
    assert a == b
    assert a != c
    assert hash(a) == hash(b)


@given(st.lists(st.integers(min_value=0, max_value=999), min_size=1, max_size=16))
def test_valid_count_matches_live_pages(lpns):
    """Invariant: valid_count == number of non-None page entries."""
    block = FlashBlock(0, 0, 0, pages_per_block=16)
    for lpn in lpns:
        block.program(lpn)
    live = sum(1 for entry in block.page_lpns if entry is not None)
    assert block.valid_count == live == len(lpns)
    # Invalidate every other written page and recheck.
    for page in range(0, len(lpns), 2):
        block.invalidate(page)
    live = sum(1 for entry in block.page_lpns if entry is not None)
    assert block.valid_count == live
