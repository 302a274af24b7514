"""Result containers and metric computation for experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


def bandwidth_series(
    completion_times_s: list,
    completion_bytes: list,
    start_s: float,
    end_s: float,
    interval_s: float = 1.0,
) -> np.ndarray:
    """Per-interval bandwidth (MB/s) from completion events."""
    if end_s <= start_s:
        return np.zeros(0)
    n_bins = max(int(np.ceil((end_s - start_s) / interval_s)), 1)
    bins = np.zeros(n_bins)
    for t, size in zip(completion_times_s, completion_bytes):
        if start_s <= t < end_s:
            bins[min(int((t - start_s) / interval_s), n_bins - 1)] += size
    return bins / (1024.0 * 1024.0) / interval_s


@dataclass
class VssdResult:
    """Per-vSSD outcome of one experiment run."""

    name: str
    workload: str
    category: str
    completed: int
    mean_bw_mbps: float
    mean_latency_us: float
    #: Percentile fields are ``None`` when the run recorded no requests —
    #: an empty series has no percentile, and 0.0 would read as a
    #: perfect latency.
    p95_latency_us: Optional[float]
    p99_latency_us: Optional[float]
    p999_latency_us: Optional[float]
    slo_latency_us: Optional[float]
    slo_violation_frac: float
    write_amplification: float
    gc_runs: int

    def summary_row(self) -> str:
        """One-line human-readable summary of the vSSD's results."""
        p99 = (
            "   n/a" if self.p99_latency_us is None
            else f"{self.p99_latency_us / 1000.0:6.2f}"
        )
        return (
            f"{self.name:>14s}  bw={self.mean_bw_mbps:7.1f} MB/s  "
            f"p99={p99} ms  "
            f"slo_vio={100 * self.slo_violation_frac:5.2f}%"
        )


@dataclass
class ExperimentResult:
    """Outcome of one policy run over one workload collocation."""

    policy: str
    duration_s: float
    measure_start_s: float
    vssds: dict = field(default_factory=dict)  # name -> VssdResult
    util_series: np.ndarray = field(default_factory=lambda: np.zeros(0))
    total_bandwidth_mbps: float = 0.0
    admission_stats: Optional[object] = None
    gsb_stats: Optional[object] = None
    #: ControlEvent rows from the fault injector (empty without faults).
    fault_events: list = field(default_factory=list)
    #: ControlEvent rows from the guardrail layer (empty when disabled).
    guardrail_events: list = field(default_factory=list)

    @property
    def avg_utilization(self) -> float:
        """Mean SSD bandwidth utilization over the measurement period."""
        if len(self.util_series) == 0 or self.total_bandwidth_mbps <= 0:
            return 0.0
        return float(self.util_series.mean() / self.total_bandwidth_mbps)

    @property
    def p95_utilization(self) -> float:
        """95th-percentile of the per-interval utilization series."""
        if len(self.util_series) == 0 or self.total_bandwidth_mbps <= 0:
            return 0.0
        return float(
            np.percentile(self.util_series, 95) / self.total_bandwidth_mbps
        )

    def vssd(self, name: str) -> VssdResult:
        """Result row for one vSSD by name."""
        return self.vssds[name]

    def by_category(self, category: str) -> list:
        """All vSSD results in one workload category."""
        return [v for v in self.vssds.values() if v.category == category]

    def mean_bw_of(self, category: str) -> float:
        """Mean bandwidth across a category's vSSDs (MB/s)."""
        rows = self.by_category(category)
        return float(np.mean([r.mean_bw_mbps for r in rows])) if rows else 0.0

    def mean_of_p99s(self, category: str) -> Optional[float]:
        """Mean of the per-vSSD P99 latencies in a category (us).

        This is an average of tail latencies, **not** a P99 of the pooled
        category — computing a true category P99 would need the raw
        latency series.  Label it accordingly in reports.  Returns
        ``None`` when the category is empty or recorded no requests.
        """
        values = [
            r.p99_latency_us
            for r in self.by_category(category)
            if r.p99_latency_us is not None
        ]
        return float(np.mean(values)) if values else None

    def admission_summary(self) -> str:
        """One-line denied/submitted action summary (empty if no stats)."""
        stats = self.admission_stats
        if stats is None or stats.submitted == 0:
            return ""
        denied_pct = 100.0 * stats.denied / stats.submitted
        line = (
            f"actions: {stats.submitted} submitted, "
            f"{stats.denied} denied ({denied_pct:.1f}%), "
            f"{stats.executed_harvest} harvests, "
            f"{stats.executed_make_harvestable} offers, "
            f"{stats.priority_changes} priority changes"
        )
        degraded = getattr(stats, "denied_degraded", 0)
        if degraded:
            line += f", {degraded} denied-degraded"
        return line
