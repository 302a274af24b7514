"""Tests for the discrete RL action space."""

import pytest

from repro.core.actionspace import (
    HARVEST_LEVELS,
    HARVESTABLE_LEVELS,
    PRIORITY_LEVELS,
    ActionSpace,
)
from repro.sched.request import Priority
from repro.virt.actions import HarvestAction, MakeHarvestableAction, SetPriorityAction


@pytest.fixture
def space():
    return ActionSpace(channel_bandwidth_mbps=60.0)


def test_covers_all_three_action_kinds(space):
    kinds = {space.kind(i) for i in range(len(space))}
    assert kinds == {"harvest", "make_harvestable", "set_priority"}


def test_action_count(space):
    expected = len(HARVEST_LEVELS) + len(HARVESTABLE_LEVELS) + len(PRIORITY_LEVELS)
    assert space.num_actions == expected


def test_harvest_command_bandwidth(space):
    index = space.indices_of("harvest")[1]  # level 2
    command = space.to_command(index, vssd_id=3)
    assert isinstance(command, HarvestAction)
    assert command.vssd_id == 3
    assert command.gsb_bw_mbps == pytest.approx(120.0, rel=1e-6)


def test_make_harvestable_zero_level(space):
    index = space.indices_of("make_harvestable")[0]
    command = space.to_command(index, vssd_id=1)
    assert isinstance(command, MakeHarvestableAction)
    assert command.gsb_bw_mbps < 1.0  # level 0 + epsilon


def test_priority_commands(space):
    indices = space.indices_of("set_priority")
    levels = [space.to_command(i, 0).level for i in indices]
    assert levels == [Priority.LOW, Priority.MEDIUM, Priority.HIGH]
    assert all(isinstance(space.to_command(i, 0), SetPriorityAction) for i in indices)


def test_describe_human_readable(space):
    descriptions = [space.describe(i) for i in range(len(space))]
    assert "Harvest(1ch)" in descriptions
    assert "Set_Priority(HIGH)" in descriptions
    assert "Make_Harvestable(0ch)" in descriptions


def test_bandwidth_levels_round_trip(space):
    """Converting a level-k command back to channels yields k."""
    from repro.config import SSDConfig
    from repro.ssd import Ssd
    from repro.sim import Simulator
    from repro.virt.gsb_manager import GsbManager

    config = SSDConfig()
    manager = GsbManager(Ssd(config, Simulator()))
    space = ActionSpace(config.channel_write_bandwidth_mbps)
    for k, index in zip(HARVEST_LEVELS, space.indices_of("harvest")):
        command = space.to_command(index, 0)
        assert manager.bandwidth_to_channels(command.gsb_bw_mbps) == k


def test_decode_covers_catalog(space):
    """decode() is the public (kind, level) surface; it agrees with
    kind() and enumerates the documented levels per family."""
    decoded = [space.decode(i) for i in range(len(space))]
    assert [kind for kind, _level in decoded] == [
        space.kind(i) for i in range(len(space))
    ]
    levels = {}
    for kind, level in decoded:
        levels.setdefault(kind, []).append(level)
    assert levels["harvest"] == list(HARVEST_LEVELS)
    assert levels["make_harvestable"] == list(HARVESTABLE_LEVELS)
    assert levels["set_priority"] == list(PRIORITY_LEVELS)


def test_invalid_bandwidth_rejected():
    with pytest.raises(ValueError):
        ActionSpace(0.0)
