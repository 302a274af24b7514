"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main


def test_workloads_command(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    for name in ("terasort", "ycsb", "vdi-web"):
        assert name in out


def test_run_command_small_device(capsys):
    code = main([
        "run", "ycsb", "batchanalytics",
        "--policy", "hardware", "--duration", "2", "--warmup", "0.5",
        "--channels", "4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "hardware" in out
    assert "ycsb" in out
    assert "bw=" in out


def test_compare_command_subset(capsys):
    code = main([
        "compare", "ycsb", "batchanalytics",
        "--policies", "hardware,software",
        "--duration", "2", "--warmup", "0.5", "--channels", "4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "hardware" in out and "software" in out


def test_classify_command(capsys):
    assert main(["classify", "pagerank"]) == 0
    out = capsys.readouterr().out
    assert "cluster:" in out
    assert "BI" in out


def test_unknown_workload_fails(capsys):
    code = main(["run", "postgres", "--duration", "1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_duplicate_workload_names_disambiguated(capsys):
    code = main([
        "run", "ycsb", "ycsb",
        "--policy", "hardware", "--duration", "1", "--warmup", "0.2",
        "--channels", "4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "ycsb-1" in out and "ycsb-2" in out


def test_faults_command_smoke(capsys, monkeypatch, tmp_path):
    """The faults command runs the scenario end to end on a tiny device."""
    from repro.config import RLConfig
    from repro.core.actionspace import ActionSpace
    from repro.config import SSDConfig
    from repro.rl import PolicyValueNet
    import repro.harness.pretrained as pretrained

    space = ActionSpace(SSDConfig().channel_write_bandwidth_mbps)
    net = PolicyValueNet(RLConfig().state_dim, space.num_actions, (8, 8))
    monkeypatch.setattr(pretrained, "get_pretrained_net", lambda *a, **k: net)
    monkeypatch.setattr(pretrained, "get_classifier", lambda *a, **k: None)
    csv_path = tmp_path / "events.csv"
    code = main([
        "faults", "ycsb", "batchanalytics",
        "--channels", "4", "--duration", "4", "--warmup", "1",
        "--fault-start", "1.5", "--fault-duration", "1.5", "--factor", "2",
        "--events-csv", str(csv_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "fleetio+guardrails" in out
    assert "P99 latency by phase" in out
    assert "channel_slowdown:start" in out
    assert "agent_corruption:start" in out
    assert csv_path.exists()
    assert "time_s,source,kind" in csv_path.read_text().splitlines()[0]


def test_profile_command_writes_counters(capsys, tmp_path):
    out_path = tmp_path / "profile.json"
    code = main([
        "profile", "ycsb", "--policy", "hardware",
        "--duration", "1", "--warmup", "0.2", "--channels", "4",
        "--json", str(out_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "sim.events" in out
    assert "wall seconds" in out
    payload = json.loads(out_path.read_text())
    counters = payload["profile"]["counters"]
    assert counters["sim.events"] > 0
    assert counters["ftl.io_requests"] > 0
    assert "timers" not in payload["profile"]
    assert payload["wall_s"] > 0


def test_parser_covers_all_commands():
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, type(parser._actions[-1]))
    )
    names = set(sub.choices)
    assert {
        "run", "compare", "faults", "workloads", "classify", "pretrain",
        "overheads", "sweep", "fleet", "adversarial", "lint",
    } <= names


def test_adversarial_command_smoke(capsys, tmp_path):
    """A 2-round micro-search completes, reports, and emits cells."""
    json_path = tmp_path / "search.json"
    cell_dir = tmp_path / "cells"
    code = main([
        "adversarial", "--rounds", "2", "--population", "3", "--seed", "0",
        "--tiny-iterations", "1", "--antagonist-iters", "1",
        "--eval-episodes", "1", "--episode-windows", "8", "--top", "1",
        "--emit-cells", str(cell_dir), "--json", str(json_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "evaluations over 2 rounds" in out
    assert "regret" in out
    assert json_path.exists()
    cells = list(cell_dir.glob("adv-*.json"))
    assert len(cells) == 1

    from repro.adversarial import load_cell, verify_cell

    assert verify_cell(load_cell(cells[0])) == []


_TINY_SWEEP = [
    "sweep", "ycsb", "--policies", "hardware", "--seeds", "0",
    "--duration", "0.5", "--warmup", "0.1", "--channels", "4", "--workers", "1",
]


def test_sweep_snapshots_off_exports_off(monkeypatch):
    """The explicit escape hatch overrides the environment, and is set
    process-wide so every pool worker resolves the same flag."""
    monkeypatch.setenv("REPRO_SNAPSHOTS", "mem")
    assert main(_TINY_SWEEP + ["--snapshots", "off"]) == 0
    assert os.environ["REPRO_SNAPSHOTS"] == "off"


def test_sweep_rejects_the_retired_disk_mode(monkeypatch):
    monkeypatch.setenv("REPRO_SNAPSHOTS", "disk")
    with pytest.raises(ValueError, match="REPRO_SNAPSHOTS"):
        main(_TINY_SWEEP)


_TINY_FLEET = ["--duration", "0.3", "--warmup", "0.1"]


def _rows(out, status):
    """Cell ids of the outcome table's rows with ``status``."""
    return [
        line.split()[0]
        for line in out.splitlines()
        if line.split()[1:2] == [status]
    ]


def test_fleet_command_prints_one_row_per_device(capsys):
    code = main(
        ["fleet", "ycsb", "--devices", "3", "--workers", "2", "--verify-serial"]
        + _TINY_FLEET
    )
    assert code == 0
    out = capsys.readouterr().out
    assert _rows(out, "ok") == [f"ycsb/adaptive/s{seed}" for seed in (42, 43, 44)]
    assert "telemetry byte-equal: True" in out


def test_fleet_with_an_unknown_workload_fails_every_device(capsys):
    code = main(["fleet", "no-such-workload", "--devices", "2"] + _TINY_FLEET)
    assert code == 1
    out = capsys.readouterr().out
    assert _rows(out, "FAILED") == [
        f"no-such-workload/adaptive/s{seed}" for seed in (42, 43)
    ]
    assert _rows(out, "ok") == []
