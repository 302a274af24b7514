"""Per-vSSD runtime monitoring.

Each vSSD's agent "will monitor the I/O traffic of the vSSD, extract the
essential storage states (e.g., I/O latency, throughput, and queue delay),
and transfer them into RL states" (Section 3.2).  A vSSD has one monitor,
fed by the dispatcher's completion callback for that vSSD: its windows
(:class:`WindowStats`) and recent-request sample (for workload-type
classification) are the agent's view, and its full latency record is the
experiment's ground truth for end-of-run results.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.sched.request import IoRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.virt.vssd import Vssd


@dataclass(frozen=True)
class WindowStats:
    """One decision window's summary — the raw material of Table 1."""

    vssd_id: int
    window_start_s: float
    window_end_s: float
    avg_bw_mbps: float       # Avg_BW
    avg_iops: float          # Avg_IOPS
    avg_latency_us: float    # Avg_Lat
    slo_violation_frac: float  # SLO_Vio (fraction, 0..1)
    queue_delay_us: float    # QDelay (mean queueing delay)
    rw_ratio: float          # RW_Ratio (fraction of reads, 0..1)
    avail_capacity_frac: float  # Avail_Capacity, normalized
    in_gc: bool              # In_GC
    cur_priority: int        # Cur_Priority
    completed: int
    reads: int
    writes: int


class VssdMonitor:
    """Accumulates per-window counters and long-run records for a vSSD."""

    #: Recent requests retained for workload-type classification.
    TRACE_SAMPLE_SIZE = 10_000

    def __init__(self, vssd: "Vssd") -> None:
        self.vssd = vssd
        self.slo_latency_us = vssd.slo_latency_us
        # Window-scoped accumulators.
        self._window_start_s = 0.0
        self._bytes = 0
        self._completed = 0
        self._reads = 0
        self._writes = 0
        self._latency_sum = 0.0
        self._queue_delay_sum = 0.0
        self._violations = 0
        # Run-scoped records.
        self.all_latencies: list = []
        self.all_read_latencies: list = []
        self.completion_times_s: list = []
        self.completion_bytes: list = []
        self.total_bytes = 0
        self.total_completed = 0
        self.recent_trace: deque = deque(maxlen=self.TRACE_SAMPLE_SIZE)
        self.measure_from_s = 0.0
        #: Published windows; only the adaptive manager appends here.
        self.window_history: list = []
        # Fault-injection hooks (repro.faults), on the agent's view only:
        # ``dropout`` keeps completions out of the windows and the recent
        # trace; ``corrupt`` replaces every float field of the window
        # snapshot with NaN (a misbehaving telemetry source).
        self.dropout = False
        self.corrupt = False
        self.dropped_completions = 0

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def on_complete(self, request: IoRequest) -> None:
        """Dispatcher completion hook: fold one request into the counters."""
        if request.failed:
            return
        # Hot path (one call per completion): bind the request's derived
        # properties once instead of recomputing them per field below.
        complete_time = request.complete_time
        latency = complete_time - request.submit_time  # == request.latency_us
        size_bytes = request.num_pages * request.page_size  # == request.size_bytes
        is_read = request.op == "read"
        complete_s = complete_time / 1_000_000.0
        if complete_s >= self.measure_from_s:
            self.all_latencies.append(latency)
            if is_read:
                self.all_read_latencies.append(latency)
            self.completion_times_s.append(complete_s)
            self.completion_bytes.append(size_bytes)
            self.total_bytes += size_bytes
            self.total_completed += 1
        if self.dropout:
            self.dropped_completions += 1
            return
        self._completed += 1
        self._bytes += size_bytes
        self._latency_sum += latency
        self._queue_delay_sum += request.dispatch_time - request.submit_time
        if is_read:
            self._reads += 1
        else:
            self._writes += 1
        if self.slo_latency_us is not None and latency > self.slo_latency_us:
            self._violations += 1
        self.recent_trace.append(
            (complete_time, 1 if is_read else 0, request.lpn, request.num_pages)
        )

    def reset_measurement(self, at_s: float) -> None:
        """Restart the run-scoped records at ``at_s`` (windows carry on)."""
        self.measure_from_s = at_s
        self.all_latencies.clear()
        self.all_read_latencies.clear()
        self.completion_times_s.clear()
        self.completion_bytes.clear()
        self.total_bytes = 0
        self.total_completed = 0

    # ------------------------------------------------------------------
    # Window snapshot
    # ------------------------------------------------------------------
    def snapshot_window(self, now_s: float) -> WindowStats:
        """Summarize the window ending now, then reset window counters."""
        duration = max(now_s - self._window_start_s, 1e-9)
        completed = self._completed
        ftl = self.vssd.ftl
        total_pages = max(
            sum(ftl._own_blocks_per_channel.values()) * ftl.config.pages_per_block, 1
        )
        stats = WindowStats(
            vssd_id=self.vssd.vssd_id,
            window_start_s=self._window_start_s,
            window_end_s=now_s,
            avg_bw_mbps=(self._bytes / (1024.0 * 1024.0)) / duration,
            avg_iops=completed / duration,
            avg_latency_us=self._latency_sum / completed if completed else 0.0,
            slo_violation_frac=self._violations / completed if completed else 0.0,
            queue_delay_us=self._queue_delay_sum / completed if completed else 0.0,
            rw_ratio=self._reads / completed if completed else 0.5,
            avail_capacity_frac=min(ftl.free_pages() / total_pages, 1.0),
            in_gc=self._any_observed_in_gc(),
            cur_priority=int(self.vssd.priority),
            completed=completed,
            reads=self._reads,
            writes=self._writes,
        )
        if self.corrupt:
            stats = replace(
                stats,
                avg_bw_mbps=float("nan"),
                avg_iops=float("nan"),
                avg_latency_us=float("nan"),
                slo_violation_frac=float("nan"),
                queue_delay_us=float("nan"),
                rw_ratio=float("nan"),
                avail_capacity_frac=float("nan"),
            )
        self._window_start_s = now_s
        self._bytes = 0
        self._completed = 0
        self._reads = 0
        self._writes = 0
        self._latency_sum = 0.0
        self._queue_delay_sum = 0.0
        self._violations = 0
        return stats

    def _any_observed_in_gc(self) -> bool:
        """GC active on any channel this vSSD touches (own or harvested)?

        A pure boolean over ``Channel.in_gc`` flags: duplicates and
        visit order cannot change the answer, so the channel ids are
        probed directly — the per-window dedup set and sorted list the
        old ``_observed_channels`` built existed only to feed ``any``.
        """
        channels = self.vssd.ftl.ssd.channels
        for channel_id in self.vssd.channel_ids:
            if channels[channel_id].in_gc:
                return True
        for gsb in self.vssd.harvested_gsbs:
            for channel_id in gsb.channel_ids:
                if channels[channel_id].in_gc:
                    return True
        return False

    # ------------------------------------------------------------------
    # Run-level metrics
    # ------------------------------------------------------------------
    def latency_percentile(
        self,
        percentile: float,
        reads_only: bool = False,
        default: Optional[float] = None,
    ) -> Optional[float]:
        """Percentile over all recorded (post-warm-up) latencies, in us.

        An empty series has no percentile: the result is ``default``
        (``None`` unless overridden), never a silent 0.0 that could read
        as a perfect latency.
        """
        data = self.all_read_latencies if reads_only else self.all_latencies
        if not data:
            return default
        return float(np.percentile(np.asarray(data), percentile))

    def latency_percentile_between(
        self,
        start_s: float,
        end_s: float,
        percentile: float,
        default: Optional[float] = None,
    ) -> Optional[float]:
        """Percentile over latencies completing in ``[start_s, end_s)``.

        Used for phase analysis around injected faults: pre-fault,
        during-fault, and post-recovery tail latencies of the same run.
        Returns ``default`` (``None`` unless overridden) when no request
        completed inside the window.
        """
        data = [
            latency
            for t, latency in zip(self.completion_times_s, self.all_latencies)
            if start_s <= t < end_s
        ]
        if not data:
            return default
        return float(np.percentile(np.asarray(data), percentile))

    def bandwidth_between(self, start_s: float, end_s: float) -> float:
        """Mean bandwidth (MB/s) over completions in ``[start_s, end_s)``."""
        if end_s <= start_s:
            return 0.0
        total = sum(
            size
            for t, size in zip(self.completion_times_s, self.completion_bytes)
            if start_s <= t < end_s
        )
        return (total / (1024.0 * 1024.0)) / (end_s - start_s)

    def mean_bandwidth_mbps(self, elapsed_s: float) -> float:
        """Mean bandwidth over the measurement period (MB/s)."""
        if elapsed_s <= 0:
            return 0.0
        return (self.total_bytes / (1024.0 * 1024.0)) / elapsed_s

    def overall_slo_violation_frac(self) -> float:
        """Fraction of recorded requests exceeding the SLO."""
        if not self.all_latencies or self.slo_latency_us is None:
            return 0.0
        data = np.asarray(self.all_latencies)
        return float((data > self.slo_latency_us).mean())
