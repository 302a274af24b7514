"""Per-window telemetry export: the RL's view of a run, as CSV.

Every decision window produces a :class:`~repro.core.monitor.WindowStats`
per vSSD (the Table 1 states).  Exporting that time series makes runs
debuggable — which window did violations spike, when did harvested
bandwidth arrive — without attaching a debugger to the simulator.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller import FleetIoController

from repro.core.monitor import WindowStats
from repro.faults.events import EVENT_COLUMNS, ControlEvent

WINDOW_COLUMNS = (
    "vssd",
    "window_start_s",
    "window_end_s",
    "avg_bw_mbps",
    "avg_iops",
    "avg_latency_us",
    "slo_violation_frac",
    "queue_delay_us",
    "rw_ratio",
    "avail_capacity_frac",
    "in_gc",
    "cur_priority",
    "completed",
    "reads",
    "writes",
)


def _write_window_rows(
    writer: Any, histories: Mapping[str, Iterable[WindowStats]]
) -> int:
    writer.writerow(WINDOW_COLUMNS)
    rows = 0
    for label, history in histories.items():
        for window in history:
            writer.writerow(
                [
                    label,
                    f"{window.window_start_s:.3f}",
                    f"{window.window_end_s:.3f}",
                    f"{window.avg_bw_mbps:.3f}",
                    f"{window.avg_iops:.1f}",
                    f"{window.avg_latency_us:.1f}",
                    f"{window.slo_violation_frac:.5f}",
                    f"{window.queue_delay_us:.1f}",
                    f"{window.rw_ratio:.4f}",
                    f"{window.avail_capacity_frac:.4f}",
                    int(window.in_gc),
                    window.cur_priority,
                    window.completed,
                    window.reads,
                    window.writes,
                ]
            )
            rows += 1
    return rows


def windows_to_csv(
    histories: Mapping[str, Iterable[WindowStats]], path: Union[str, Path]
) -> int:
    """Write per-window rows for several vSSDs; returns the row count.

    ``histories`` maps a vSSD label to its monitor's ``window_history``.
    """
    path = Path(path)
    with path.open("w", newline="") as handle:
        return _write_window_rows(csv.writer(handle), histories)


def windows_csv_bytes(histories: Mapping[str, Iterable[WindowStats]]) -> bytes:
    """The same CSV as :func:`windows_to_csv`, as bytes.

    The parallel runner uses this to ship per-cell telemetry across the
    process boundary and to assert serial-vs-parallel byte equality.
    """
    buffer = io.StringIO(newline="")
    _write_window_rows(csv.writer(buffer), histories)
    return buffer.getvalue().encode("utf-8")


def controller_actions_to_csv(
    controller: "FleetIoController", path: Union[str, Path]
) -> int:
    """Export a FleetIO controller's per-window action log.

    One row per (window, vSSD): the chosen action, its family, and the
    window's headline states — enough to replay why an agent acted.
    """
    path = Path(path)
    rows = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["window", "vssd", "action", "family", "avg_bw_mbps",
             "slo_violation_frac", "queue_delay_us", "in_gc"]
        )
        for index, entry in enumerate(controller.window_log):
            for vssd_id, action_index in entry["actions"].items():
                window = entry["stats"][vssd_id]
                if action_index is None:
                    # Guardrail fallback windows take the safe no-op.
                    action, family = "Suspended(no-op)", "suspended"
                else:
                    action = controller.action_space.describe(action_index)
                    family = controller.action_space.kind(action_index)
                writer.writerow(
                    [
                        index,
                        vssd_id,
                        action,
                        family,
                        f"{window.avg_bw_mbps:.3f}",
                        f"{window.slo_violation_frac:.5f}",
                        f"{window.queue_delay_us:.1f}",
                        int(window.in_gc),
                    ]
                )
                rows += 1
    return rows


def events_to_csv(events: Iterable[ControlEvent], path: Union[str, Path]) -> int:
    """Export fault-injector and guardrail events, time-ordered.

    Pass the concatenation of ``result.fault_events`` and
    ``result.guardrail_events`` to see the full fault/reaction timeline
    in one file; rows are sorted by timestamp.
    """
    path = Path(path)
    rows = 0
    ordered = sorted(events, key=lambda e: e.time_s)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(EVENT_COLUMNS)
        for event in ordered:
            writer.writerow(event.as_row())
            rows += 1
    return rows
