"""Tests for wear tracking and wear-aware block selection."""


from repro.config import SSDConfig
from repro.sim import Simulator
from repro.ssd import Ssd, VssdFtl


def _world(wear_aware):
    config = SSDConfig(
        num_channels=2, chips_per_channel=2, blocks_per_chip=8, pages_per_block=8
    )
    ssd = Ssd(config, Simulator())
    ftl = VssdFtl(0, ssd)
    ftl.own_region.wear_aware = wear_aware
    ftl.adopt_blocks(ssd.allocate_channels(0, [0, 1]))
    return config, ssd, ftl


def _churn(config, ftl, rounds=6):
    total_pages = 2 * config.blocks_per_channel * config.pages_per_block
    working_set = total_pages // 3
    for i in range(total_pages * rounds):
        ftl.write_span(i % working_set, 1)


def test_wear_summary_counts_erases():
    config, ssd, ftl = _world(wear_aware=False)
    assert ssd.wear_summary()["max"] == 0
    _churn(config, ftl)
    summary = ssd.wear_summary()
    assert summary["max"] > 0
    assert summary["blocks"] == config.total_blocks
    assert summary["mean"] > 0


def test_wear_summary_per_tenant():
    config, ssd, ftl = _world(wear_aware=False)
    _churn(config, ftl)
    own = ssd.wear_summary(vssd_id=0)
    foreign = ssd.wear_summary(vssd_id=42)
    assert own["max"] > 0
    assert foreign["blocks"] == 0


def test_wear_aware_reduces_spread():
    """Least-worn-first block selection narrows the erase-count spread
    relative to FIFO selection under identical churn."""
    spreads = {}
    for wear_aware in (False, True):
        config, ssd, ftl = _world(wear_aware)
        _churn(config, ftl, rounds=8)
        spreads[wear_aware] = ssd.wear_summary(vssd_id=0)["spread"]
    assert spreads[True] <= spreads[False]


def test_wear_accumulates_monotonically():
    config, ssd, ftl = _world(wear_aware=True)
    _churn(config, ftl, rounds=2)
    first = ssd.wear_summary()["mean"]
    _churn(config, ftl, rounds=2)
    assert ssd.wear_summary()["mean"] > first


def test_wear_aware_config_flag():
    config = SSDConfig(
        num_channels=2, chips_per_channel=2, blocks_per_chip=8,
        pages_per_block=8, wear_aware_allocation=True,
    )
    ssd = Ssd(config, Simulator())
    ftl = VssdFtl(0, ssd)
    assert ftl.own_region.wear_aware is True
