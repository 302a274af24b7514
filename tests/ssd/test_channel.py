"""Tests for the channel timing model."""

import pytest

from repro.config import SSDConfig
from repro.sim import Simulator
from repro.ssd.channel import Channel


@pytest.fixture
def cfg():
    return SSDConfig(num_channels=1, chips_per_channel=2, blocks_per_chip=4, pages_per_block=8)


@pytest.fixture
def channel(cfg):
    return Channel(0, cfg, Simulator())


def test_read_latency_uncontended(channel, cfg):
    done = channel.service_read(0)
    assert done == pytest.approx(cfg.page_read_us + cfg.bus_transfer_us)


def test_write_latency_uncontended(channel, cfg):
    done = channel.service_write(0)
    assert done == pytest.approx(cfg.bus_transfer_us + cfg.page_write_us)


def test_bus_serializes_transfers(channel, cfg):
    first = channel.service_write(0)
    second = channel.service_write(1)
    # The second transfer waits for the first on the shared bus.
    assert second >= first - cfg.page_write_us + cfg.bus_transfer_us


def test_chip_serializes_programs(channel, cfg):
    first = channel.service_write(0)
    second = channel.service_write(0)
    assert second >= first + cfg.page_write_us


def test_different_chips_overlap_programs(channel, cfg):
    channel.service_write(0)
    second = channel.service_write(1)
    third_same_chip = Channel(0, cfg, Simulator())
    third_same_chip.service_write(0)
    serial = third_same_chip.service_write(0)
    assert second < serial  # two chips beat one chip


def test_front_read_bypasses_backlog(channel, cfg):
    for _ in range(10):
        channel.service_write(0)
    normal = Channel(0, cfg, Simulator())
    for _ in range(10):
        normal.service_write(0)
    front_done = channel.service_read(1, front=True)
    normal_done = normal.service_read(1)
    assert front_done < normal_done


def test_front_read_not_slower_when_idle(channel, cfg):
    baseline = Channel(0, cfg, Simulator()).service_read(0)
    front = channel.service_read(0, front=True)
    assert front <= baseline + 1e-9


def test_front_write_not_slower_when_idle(cfg):
    a = Channel(0, cfg, Simulator()).service_write(0)
    b = Channel(0, cfg, Simulator()).service_write(0, front=True)
    assert b <= a + 1e-9


def test_front_insertion_conserves_bus_work(channel, cfg):
    channel.service_write(0)
    before = channel.arrays.bus_busy[0]
    channel.service_read(1, front=True)
    assert channel.arrays.bus_busy[0] == pytest.approx(before + cfg.bus_transfer_us)


def test_busy_horizon_grows_with_queued_work(channel, cfg):
    assert channel.busy_horizon_us() == 0.0
    channel.service_write(0)
    assert channel.busy_horizon_us() > 0.0


def test_has_capacity_false_past_horizon(channel, cfg):
    while channel.has_capacity():
        channel.service_write(0)
    assert channel.busy_horizon_us() >= cfg.max_queue_depth * cfg.bus_transfer_us


def test_queue_headroom_decreases(channel):
    start = channel.queue_headroom()
    channel.service_write(0)
    assert channel.queue_headroom() < start


def test_gc_occupies_chip_and_sets_flag(channel, cfg):
    done = channel.occupy_for_gc(0, migrate_reads=4, erases=1)
    assert channel.in_gc is True
    assert done >= cfg.block_erase_us
    channel.sim.run()
    assert channel.in_gc is False


def test_gc_background_bus_charge_is_discounted(channel, cfg):
    before = channel.arrays.bus_busy[0]
    channel.occupy_for_gc(0, migrate_reads=10, erases=0)
    charged = channel.arrays.bus_busy[0] - max(before, 0.0)
    assert charged == pytest.approx(10 * cfg.bus_transfer_us * cfg.gc_bus_share)


def test_background_write_discounts_bus(cfg):
    a = Channel(0, cfg, Simulator())
    a.service_write(0, background=True)
    b = Channel(0, cfg, Simulator())
    b.service_write(0)
    assert a.arrays.bus_busy[0] < b.arrays.bus_busy[0]


def test_stats_accumulate(channel):
    channel.service_read(0)
    channel.service_write(1)
    channel.occupy_for_gc(0, migrate_reads=2, erases=1)
    assert channel.stats.pages_read == 1
    assert channel.stats.pages_written == 1
    assert channel.stats.gc_pages_migrated == 2
    assert channel.stats.gc_erases == 1
    assert channel.stats.gc_busy_us > 0


def test_release_below_zero_raises(channel):
    channel.acquire(2)
    channel.release(2)
    with pytest.raises(RuntimeError):
        channel.release(1)
