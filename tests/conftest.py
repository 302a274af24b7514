"""Shared fixtures: small geometries so tests run in milliseconds."""

from __future__ import annotations

import pytest

from repro.config import RLConfig, SSDConfig
from repro.sim import Simulator
from repro.ssd import Ssd, VssdFtl
from repro.ssd.hbt import HarvestedBlockTable

try:  # the CI smoke jobs install pytest without hypothesis
    from hypothesis import settings
except ImportError:
    pass
else:
    # ``--hypothesis-profile ci``: the same 300 examples on every run, so
    # a divergence in a differential suite names one reproducible case.
    settings.register_profile("ci", max_examples=300, deadline=None, derandomize=True)


@pytest.fixture
def small_config() -> SSDConfig:
    """A small SSD: 4 channels x 2 chips x 8 blocks x 16 pages."""
    return SSDConfig(
        num_channels=4,
        chips_per_channel=2,
        blocks_per_chip=8,
        pages_per_block=16,
        min_superblock_blocks=2,
    )


@pytest.fixture
def tiny_rl_config() -> RLConfig:
    return RLConfig(decision_interval_s=0.1, batch_size=8)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def ssd(small_config, sim) -> Ssd:
    return Ssd(small_config, sim)


@pytest.fixture
def hbt() -> HarvestedBlockTable:
    return HarvestedBlockTable()


@pytest.fixture
def ftl(ssd, hbt) -> VssdFtl:
    """An FTL owning channels 0-1 of the small SSD."""
    ftl = VssdFtl(0, ssd, hbt=hbt)
    ftl.adopt_blocks(ssd.allocate_channels(0, [0, 1]))
    return ftl
