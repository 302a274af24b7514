"""Tests for per-window telemetry export."""

import csv

import pytest

from repro.core.actionspace import ActionSpace
from repro.core.controller import FleetIoController
from repro.core.monitor import VssdMonitor
from repro.harness.telemetry import controller_actions_to_csv, windows_to_csv
from repro.rl import PolicyValueNet
from repro.sched import IoRequest
from repro.virt import StorageVirtualizer


@pytest.fixture
def run(small_config, tiny_rl_config):
    virt = StorageVirtualizer(config=small_config)
    space = ActionSpace(small_config.channel_write_bandwidth_mbps)
    net = PolicyValueNet(tiny_rl_config.state_dim, space.num_actions, (8, 8))
    controller = FleetIoController(
        virt, net, rl_config=tiny_rl_config, explore=True, finetune=False
    )
    a = virt.create_vssd("a", [0, 1], slo_latency_us=2000.0)
    b = virt.create_vssd("b", [2, 3], slo_latency_us=2000.0)
    for vssd in (a, b):
        monitor = VssdMonitor(vssd)
        virt.dispatcher.add_completion_callback(monitor.on_complete, vssd_id=vssd.vssd_id)
        controller.register_vssd(vssd, monitor)
    controller.start()
    for i in range(40):
        virt.dispatcher.submit(
            IoRequest(a.vssd_id, "write", i, 1, small_config.page_size, virt.sim.now)
        )
    virt.sim.run_until_seconds(0.45)
    return virt, controller, a, b


def test_windows_to_csv(run, tmp_path):
    virt, controller, a, b = run
    histories = {
        "a": [entry["stats"][a.vssd_id] for entry in controller.window_log],
        "b": [entry["stats"][b.vssd_id] for entry in controller.window_log],
    }
    path = tmp_path / "windows.csv"
    rows = windows_to_csv(histories, path)
    assert rows >= 6  # >= 3 windows x 2 vSSDs
    with path.open() as handle:
        parsed = list(csv.DictReader(handle))
    assert parsed[0]["vssd"] == "a"
    assert float(parsed[0]["window_end_s"]) > 0
    # Windows are contiguous per vSSD.
    a_rows = [r for r in parsed if r["vssd"] == "a"]
    for earlier, later in zip(a_rows, a_rows[1:]):
        assert float(later["window_start_s"]) == pytest.approx(
            float(earlier["window_end_s"])
        )


def test_window_csv_reads_writes_roundtrip(run, tmp_path):
    virt, controller, a, _b = run
    history = [entry["stats"][a.vssd_id] for entry in controller.window_log]
    path = tmp_path / "windows.csv"
    windows_to_csv({"a": history}, path)
    with path.open() as handle:
        parsed = list(csv.DictReader(handle))
    assert len(parsed) == len(history)
    for row, window in zip(parsed, history):
        assert int(row["reads"]) == window.reads
        assert int(row["writes"]) == window.writes
        assert int(row["reads"]) + int(row["writes"]) == int(row["completed"])
    # The fixture submits writes only; they must survive the round trip.
    assert sum(int(row["writes"]) for row in parsed) > 0
    assert sum(int(row["reads"]) for row in parsed) == 0


def test_controller_actions_to_csv(run, tmp_path):
    virt, controller, _a, _b = run
    path = tmp_path / "actions.csv"
    rows = controller_actions_to_csv(controller, path)
    assert rows == 2 * len(controller.window_log)
    with path.open() as handle:
        parsed = list(csv.DictReader(handle))
    families = {row["family"] for row in parsed}
    assert families <= {"harvest", "make_harvestable", "set_priority"}
    assert all("(" in row["action"] for row in parsed)
