"""Stochastic sampling model and offline trace synthesis.

:class:`WorkloadModel` turns a :class:`~repro.workloads.spec.WorkloadSpec`
into concrete samples (op, size, address).  It is shared by the
discrete-event drivers (:mod:`repro.workloads.drivers`) and by
:func:`synthesize_trace`, which produces the block-level traces the
clustering pipeline consumes (Section 3.4).

Every per-request draw goes through one :class:`~repro.sim.random.ExactDraws`
bound to the model's generator: the same bits, in the same order, ending
in the same ``bit_generator.state``, as ``Generator.random()`` and
``Generator.integers(0, n)`` would give, at about half the cost of a numpy
call.  The interarrival draw stays ``Generator.exponential`` (numpy does
not expose its ziggurat tables) on the same generator.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.sim.random import ExactDraws
from repro.workloads.spec import WorkloadSpec


class WorkloadModel:
    """Samples I/O characteristics for one workload instance.

    ``rng`` is the model's one generator; ``draws`` reads it through its
    C entry points and holds it alive, so the bound callables stay valid
    for the model's lifetime even when the caller drops the generator.
    The pattern refuses a working set of ``2**32`` pages or more, past
    which a bounded draw would leave numpy's 32-bit path.
    """

    def __init__(self, spec: WorkloadSpec, rng: np.random.Generator, working_set_pages: int) -> None:
        self.spec = spec
        self.rng = rng
        self.draws = ExactDraws(rng)
        self._uniform = self.draws.uniform
        self.working_set_pages = working_set_pages
        self.pattern = spec.pattern_factory(working_set_pages)
        self._size_pages = tuple(int(size) for size in spec.io_sizes_pages)
        self._size_probs = np.asarray(spec.io_size_probs, dtype=np.float64)
        # Precomputed inverse-CDF for sample_size_pages: exactly the
        # cdf Generator.choice builds per call (cumsum then normalize),
        # hoisted out of the per-request path.  One uniform draw +
        # ``searchsorted(u, side="right")`` replicates choice's sampling
        # bit-for-bit while skipping its per-call p validation and cumsum;
        # ``bisect_right`` over the same floats as a list is that search
        # without the numpy call.
        cdf = self._size_probs.cumsum()
        cdf /= cdf[-1]
        self._size_cdf = cdf.tolist()
        # Per-request constants bound once (the spec is frozen).
        self._read_ratio = spec.read_ratio
        self._base_iops = spec.base_iops

    def sample_op(self) -> str:
        """Draw 'read' or 'write' per the spec's read ratio."""
        return "read" if self._uniform() < self._read_ratio else "write"

    def sample_size_pages(self) -> int:
        """Draw a request size from the spec's distribution."""
        return self._size_pages[bisect_right(self._size_cdf, self._uniform())]

    def sample_lpn(self, num_pages: int) -> int:
        """Draw a starting address from the spec's pattern."""
        return self.pattern.sample(self.draws, num_pages)

    def sample_request(self) -> tuple:
        """Return (op, lpn, num_pages).

        One frame per request: the draws of :meth:`sample_op`,
        :meth:`sample_size_pages` and :meth:`sample_lpn`, in that order,
        on the one generator (``tests/workloads/test_draw_order.py``
        holds this to the composed public samplers bit for bit).
        """
        uniform = self._uniform
        op = "read" if uniform() < self._read_ratio else "write"
        pages = self._size_pages[bisect_right(self._size_cdf, uniform())]
        return op, self.pattern.sample(self.draws, pages), pages

    def interarrival_us(self, time_s: float) -> float:
        """Exponential interarrival at the phase-scaled rate.

        For closed-loop specs this is the *nominal* rate, used only for
        offline trace synthesis; the DES driver paces by completions.
        """
        rate = self._base_iops * self.spec.scale_at(time_s)
        if rate <= 0:
            # Idle phase: skip to the next phase boundary.
            return self._time_to_next_phase_us(time_s)
        return float(self.rng.exponential(1.0 / rate)) * 1_000_000.0

    def _time_to_next_phase_us(self, time_s: float) -> float:
        spec = self.spec
        if not spec.phases:
            return 1_000_000.0
        offset = time_s % spec.cycle_duration_s
        elapsed = 0.0
        for phase in spec.phases:
            elapsed += phase.duration_s
            if offset < elapsed:
                return (elapsed - offset) * 1_000_000.0
        return 1_000_000.0


@dataclass
class Trace:
    """A block-level I/O trace as parallel numpy arrays.

    ``ops`` is 1 for reads, 0 for writes; times are microseconds.
    """

    name: str
    times_us: np.ndarray
    ops: np.ndarray
    lpns: np.ndarray
    sizes_pages: np.ndarray
    page_size: int

    def __len__(self) -> int:
        return len(self.times_us)

    def window(self, start: int, count: int) -> "Trace":
        """A sub-trace of ``count`` requests starting at index ``start``."""
        sl = slice(start, start + count)
        return Trace(
            name=self.name,
            times_us=self.times_us[sl],
            ops=self.ops[sl],
            lpns=self.lpns[sl],
            sizes_pages=self.sizes_pages[sl],
            page_size=self.page_size,
        )

    def iter_windows(self, requests_per_window: int) -> "Iterator[Trace]":
        """Yield consecutive fixed-size request windows (Section 3.4
        divides traces into 10K-request windows)."""
        for start in range(0, len(self) - requests_per_window + 1, requests_per_window):
            yield self.window(start, requests_per_window)


def synthesize_trace(
    spec: WorkloadSpec,
    rng: np.random.Generator,
    num_requests: int,
    working_set_pages: int = 65536,
    page_size: int = 16 * 1024,
) -> Trace:
    """Generate an offline trace of ``num_requests`` I/Os for clustering."""
    model = WorkloadModel(spec, rng, working_set_pages)
    times = np.empty(num_requests, dtype=np.float64)
    ops = np.empty(num_requests, dtype=np.int8)
    lpns = np.empty(num_requests, dtype=np.int64)
    sizes = np.empty(num_requests, dtype=np.int64)
    now_us = 0.0
    for i in range(num_requests):
        now_us += model.interarrival_us(now_us / 1_000_000.0)
        op, lpn, pages = model.sample_request()
        times[i] = now_us
        ops[i] = 1 if op == "read" else 0
        lpns[i] = lpn
        sizes[i] = pages
    return Trace(
        name=spec.name,
        times_us=times,
        ops=ops,
        lpns=lpns,
        sizes_pages=sizes,
        page_size=page_size,
    )
