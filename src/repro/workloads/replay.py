"""Block-trace loading, saving, and replay.

The paper's agents "collect storage I/O traces at the block level
periodically" and the clustering pipeline consumes 10K-request windows of
such traces.  This module lets downstream users bring *real* traces:

* :func:`load_msr_trace` parses the widely used MSR-Cambridge CSV format
  (``timestamp,hostname,disk,type,offset,size,latency``; 100 ns ticks,
  byte offsets).
* :func:`save_trace` / :func:`load_trace` round-trip this repository's
  :class:`~repro.workloads.model.Trace` through a simple CSV.
* :class:`TraceReplayDriver` replays a trace through the discrete-event
  dispatcher at recorded (optionally time-scaled) timestamps, so a real
  workload can stand in for any synthetic generator in an experiment.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.sched.request import IoRequest
from repro.workloads.model import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: MSR-Cambridge timestamps are in 100 ns Windows filetime ticks.
_MSR_TICKS_PER_US = 10.0


def load_msr_trace(
    path,
    page_size: int = 16 * 1024,
    name: Optional[str] = None,
    max_requests: Optional[int] = None,
) -> Trace:
    """Parse an MSR-Cambridge-format CSV block trace.

    Columns: ``timestamp,hostname,diskno,type,offset,size,latency`` with
    ``type`` being ``Read`` or ``Write``.  Offsets and sizes are bytes;
    they are converted to page-aligned LPNs and page counts.  Timestamps
    are rebased so the trace starts at zero.
    """
    path = Path(path)
    times, ops, lpns, sizes = [], [], [], []
    with path.open(newline="") as handle:
        for row in csv.reader(handle):
            if not row or row[0].startswith("#"):
                continue
            if len(row) < 6:
                raise ValueError(f"{path}: malformed MSR row {row!r}")
            timestamp, _host, _disk, op_type, offset, size = row[:6]
            times.append(float(timestamp) / _MSR_TICKS_PER_US)
            ops.append(1 if op_type.strip().lower().startswith("r") else 0)
            lpns.append(int(offset) // page_size)
            sizes.append(max(1, -(-int(size) // page_size)))  # ceil division
            if max_requests is not None and len(times) >= max_requests:
                break
    if not times:
        raise ValueError(f"{path}: no records")
    times_arr = np.asarray(times, dtype=np.float64)
    order = np.argsort(times_arr, kind="stable")
    times_arr = times_arr[order] - times_arr[order[0]]
    return Trace(
        name=name or path.stem,
        times_us=times_arr,
        ops=np.asarray(ops, dtype=np.int8)[order],
        lpns=np.asarray(lpns, dtype=np.int64)[order],
        sizes_pages=np.asarray(sizes, dtype=np.int64)[order],
        page_size=page_size,
    )


def save_trace(trace: Trace, path) -> None:
    """Write a Trace as CSV: ``time_us,op,lpn,pages`` plus a header."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["# name", trace.name, "page_size", trace.page_size])
        writer.writerow(["time_us", "op", "lpn", "pages"])
        for t, op, lpn, pages in zip(
            trace.times_us, trace.ops, trace.lpns, trace.sizes_pages
        ):
            writer.writerow([f"{t:.3f}", int(op), int(lpn), int(pages)])


def load_trace(path) -> Trace:
    """Read a Trace written by :func:`save_trace`, checking every row once
    (replayed requests are then taken as valid)."""
    path = Path(path)
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    if len(rows) < 2 or not rows[0][0].startswith("#"):
        raise ValueError(f"{path}: not a saved trace")
    name = rows[0][1]
    page_size = int(rows[0][3])
    body = rows[2:]
    for number, row in enumerate(body, start=3):  # after the two header rows
        if int(row[1]) not in (0, 1) or int(row[3]) <= 0 or int(row[2]) < 0:
            raise ValueError(f"{path}: row {number} {row!r} needs op 0/1, pages > 0, lpn >= 0")
    times = np.asarray([float(r[0]) for r in body])
    return Trace(
        name=name,
        times_us=times,
        ops=np.asarray([int(r[1]) for r in body], dtype=np.int8),
        lpns=np.asarray([int(r[2]) for r in body], dtype=np.int64),
        sizes_pages=np.asarray([int(r[3]) for r in body], dtype=np.int64),
        page_size=page_size,
    )


def trace_summary(trace: Trace) -> dict:
    """Aggregate statistics of a trace (for quick inspection)."""
    duration_s = max(
        (float(trace.times_us[-1]) - float(trace.times_us[0])) / 1e6, 1e-9
    )
    reads = trace.ops.astype(bool)
    total_bytes = int((trace.sizes_pages * trace.page_size).sum())
    return {
        "name": trace.name,
        "requests": len(trace),
        "duration_s": duration_s,
        "read_fraction": float(reads.mean()),
        "mean_iops": len(trace) / duration_s,
        "mean_bw_mbps": total_bytes / (1 << 20) / duration_s,
        "mean_io_kb": float((trace.sizes_pages * trace.page_size).mean() / 1024.0),
        "footprint_pages": int(trace.lpns.max() + trace.sizes_pages.max()),
    }


class TraceReplayDriver:
    """Replays a trace through the dispatcher at recorded timestamps.

    Drop-in alternative to the synthetic drivers: attach it to a vSSD,
    call :meth:`start`, and every record is submitted at
    ``record_time / time_scale`` relative to the start.  Addresses are
    wrapped modulo ``working_set_pages`` so any trace fits any vSSD.
    """

    def __init__(
        self,
        trace: Trace,
        vssd_id: int,
        sim: "Simulator",
        submit,
        working_set_pages: int,
        page_size: Optional[int] = None,
        time_scale: float = 1.0,
        loop: bool = False,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if working_set_pages <= 0:
            raise ValueError("working_set_pages must be positive")
        self.trace = trace
        self.vssd_id = vssd_id
        self.sim = sim
        self.submit = submit
        self.working_set_pages = working_set_pages
        self.page_size = page_size or trace.page_size
        self.time_scale = time_scale
        self.loop = loop
        self.running = False
        self.submitted = 0
        self.completed = 0
        self._cursor = 0
        self._epoch_us = 0.0

    def start(self) -> None:
        """Begin replay from the first record."""
        self.running = True
        self._epoch_us = self.sim.now
        self._schedule_next()

    def stop(self) -> None:
        """Halt replay (in-flight requests drain normally)."""
        self.running = False

    def on_complete(self, request: IoRequest) -> None:
        """Completion hook (kept for driver-interface parity)."""
        self.completed += 1

    def _schedule_next(self) -> None:
        if self._cursor >= len(self.trace):
            if not self.loop:
                return
            self._cursor = 0
            self._epoch_us = self.sim.now
        due = self._epoch_us + float(self.trace.times_us[self._cursor]) / self.time_scale
        self.sim.schedule(max(due - self.sim.now, 0.0), self._fire)

    def _fire(self) -> None:
        if not self.running:
            return
        index = self._cursor
        self._cursor += 1
        pages = int(self.trace.sizes_pages[index])
        lpn = int(self.trace.lpns[index]) % max(self.working_set_pages - pages, 1)
        self.submit(
            IoRequest(
                vssd_id=self.vssd_id,
                op="read" if self.trace.ops[index] else "write",
                lpn=lpn,
                num_pages=pages,
                page_size=self.page_size,
                submit_time=self.sim.now,
            )
        )
        self.submitted += 1
        self._schedule_next()
