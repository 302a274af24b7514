"""Declarative workload specifications."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.workloads.address import AddressPattern


@dataclass(frozen=True)
class Phase:
    """One intensity phase in a workload's repeating cycle.

    ``scale`` multiplies the base intensity: arrival rate for open-loop
    workloads, outstanding-request target for closed-loop ones.  A scale
    of 0 models a compute phase with no I/O.
    """

    duration_s: float
    scale: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("phase duration must be positive")
        if self.scale < 0:
            raise ValueError("phase scale must be non-negative")


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything needed to instantiate a workload.

    Attributes
    ----------
    name:
        Catalog name, e.g. ``"terasort"``.
    category:
        ``"latency"`` (latency-sensitive service) or ``"bandwidth"``
        (bandwidth-intensive batch job) — the paper's two workload types.
    mode:
        ``"open"`` — Poisson arrivals at ``base_iops`` (scaled per phase);
        ``"closed"`` — keep ``outstanding`` requests in flight (scaled per
        phase), which saturates whatever bandwidth is available.
    read_ratio:
        Fraction of requests that are reads.
    io_sizes_pages / io_size_probs:
        Request-size distribution in pages.
    pattern_factory:
        Builds the :class:`AddressPattern` given a working-set size.
    base_iops:
        Open-loop arrival rate (req/s) at scale 1. Also used as the
        nominal rate when synthesizing offline traces for clustering.
    outstanding:
        Closed-loop in-flight target at scale 1.
    phases:
        Repeating intensity cycle. Empty means constant intensity.
    working_set_fraction:
        Fraction of the vSSD's usable capacity the workload touches.
    """

    name: str
    category: str
    mode: str
    read_ratio: float
    io_sizes_pages: Sequence[int]
    io_size_probs: Sequence[float]
    pattern_factory: Callable[[int], AddressPattern]
    base_iops: float = 1000.0
    outstanding: int = 8
    phases: Sequence[Phase] = field(default_factory=tuple)
    working_set_fraction: float = 0.6

    def __post_init__(self) -> None:
        if self.category not in ("latency", "bandwidth"):
            raise ValueError(f"unknown category {self.category!r}")
        if self.mode not in ("open", "closed"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 <= self.read_ratio <= 1.0:
            raise ValueError("read_ratio must be in [0, 1]")
        if len(self.io_sizes_pages) != len(self.io_size_probs):
            raise ValueError("io size choices and probabilities differ in length")
        if abs(sum(self.io_size_probs) - 1.0) > 1e-9:
            raise ValueError("io_size_probs must sum to 1")
        if any(size <= 0 for size in self.io_sizes_pages):
            raise ValueError("io sizes must be positive page counts")
        if self.base_iops <= 0:
            raise ValueError("base_iops must be positive")
        if self.outstanding <= 0:
            raise ValueError("outstanding must be positive")
        if not 0.0 < self.working_set_fraction <= 1.0:
            raise ValueError("working_set_fraction must be in (0, 1]")
        # ``scale_at`` runs once per arrival / completion, so the cycle
        # length it takes the modulus by is summed once, here (phases are
        # frozen; the left-to-right float sum fixes ``time_s % cycle``).
        object.__setattr__(
            self, "_cycle_duration_s", sum(phase.duration_s for phase in self.phases)
        )

    @property
    def is_latency_sensitive(self) -> bool:
        """True for the paper's latency-sensitive category."""
        return self.category == "latency"

    @property
    def mean_io_pages(self) -> float:
        """Expected request size in pages."""
        return float(
            sum(s * p for s, p in zip(self.io_sizes_pages, self.io_size_probs))
        )

    @property
    def cycle_duration_s(self) -> float:
        """Length of one full phase cycle in seconds."""
        return self._cycle_duration_s

    def scale_at(self, time_s: float) -> float:
        """Intensity multiplier at absolute time ``time_s``."""
        if not self.phases:
            return 1.0
        offset = time_s % self._cycle_duration_s
        for phase in self.phases:
            if offset < phase.duration_s:
                return phase.scale
            offset -= phase.duration_s
        return self.phases[-1].scale
