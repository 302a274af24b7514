"""Draw-order suite: the one-frame request path vs its composed reference.

``WorkloadModel.sample_request`` draws op, size and address in one frame,
``interarrival_us`` and ``ClosedLoopDriver.target_outstanding`` read the
phase scale through a cycle length summed once per spec, and the address
patterns apply their bounds clamp inline.  Every telemetry digest depends
on those producing the *same values from the same generator positions* as
the composition they replaced, so for all nine catalog specs a model is
held — value for value, float bit for float bit, and in the generator's
final state — to a twin built from the public one-draw samplers and from
the arithmetic as it was written before (a ``sum()`` per ``scale_at``
call, ``_clamp`` as a method, ``hot_pages`` per draw).  Times sweep every
phase boundary and its neighbouring floats, exact multiples of the cycle,
an idle ``scale == 0`` phase, and a running arrival clock.
"""

from __future__ import annotations

import struct
from bisect import bisect_right

import numpy as np
import pytest

from repro.sim import Simulator
from repro.workloads import (
    WORKLOAD_CATALOG,
    ClosedLoopDriver,
    HotspotPattern,
    SequentialPattern,
    WorkloadModel,
    ZipfPattern,
    get_spec,
)

SEED = 20240916
WORKING_SET = 50_000
DRAWS = 10_000
SPECS = sorted(WORKLOAD_CATALOG)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


# -- the arithmetic as it was, one call at a time ---------------------------

def _ref_scale_at(spec, time_s: float) -> float:
    if not spec.phases:
        return 1.0
    offset = time_s % sum(phase.duration_s for phase in spec.phases)
    for phase in spec.phases:
        if offset < phase.duration_s:
            return phase.scale
        offset -= phase.duration_s
    return spec.phases[-1].scale


def _ref_time_to_next_phase_us(spec, time_s: float) -> float:
    if not spec.phases:
        return 1_000_000.0
    offset = time_s % sum(phase.duration_s for phase in spec.phases)
    elapsed = 0.0
    for phase in spec.phases:
        elapsed += phase.duration_s
        if offset < elapsed:
            return (elapsed - offset) * 1_000_000.0
    return 1_000_000.0


def _ref_interarrival_us(spec, rng, time_s: float) -> float:
    rate = spec.base_iops * _ref_scale_at(spec, time_s)
    if rate <= 0:
        return _ref_time_to_next_phase_us(spec, time_s)
    return float(rng.exponential(1.0 / rate)) * 1_000_000.0


def _ref_clamp(pattern, lpn: int, num_pages: int) -> int:
    return int(min(max(lpn, 0), max(pattern.working_set_pages - num_pages, 0)))


def _ref_address(pattern, rng, num_pages: int, cursor: list) -> int:
    """``pattern.sample`` as it was, on ``Generator.random`` and
    ``Generator.integers``; ``cursor`` is the sequential twin's."""
    if isinstance(pattern, ZipfPattern):
        rank = np.searchsorted(pattern._cdf, rng.random(), side="right")
        bucket = int(pattern._bucket_order[rank])
        offset = int(rng.integers(0, pattern._bucket_pages))
        return _ref_clamp(pattern, bucket * pattern._bucket_pages + offset, num_pages)
    if isinstance(pattern, SequentialPattern):
        ws = pattern.working_set_pages
        if cursor[0] + num_pages > ws or rng.random() < pattern.reseek_prob:
            cursor[0] = int(rng.integers(0, max(ws - num_pages, 1)))
        lpn = cursor[0]
        cursor[0] += num_pages
        return _ref_clamp(pattern, lpn, num_pages)
    if isinstance(pattern, HotspotPattern):
        ws = pattern.working_set_pages
        hot_pages = max(int(ws * pattern.hot_fraction), 1)
        if rng.random() < pattern.hot_probability:
            lpn = int(rng.integers(0, max(hot_pages - num_pages, 1)))
        else:
            lpn = int(rng.integers(hot_pages, max(ws - num_pages, hot_pages + 1)))
        return _ref_clamp(pattern, lpn, num_pages)
    # Uniform: no clamp.
    return int(rng.integers(0, max(pattern.working_set_pages - num_pages, 1)))


# -- time sweeps -------------------------------------------------------------

def _boundary_times(spec) -> list:
    """Phase boundaries of the first three cycles with the floats on
    either side, exact cycle multiples, mid-phase points, and zero."""
    times = [0.0]
    if not spec.phases:
        return times + [0.5, 1.0, 123.456]
    cycle = spec.cycle_duration_s
    for k in (0, 1, 2, 7, 1000):
        base = k * cycle
        elapsed = 0.0
        for phase in spec.phases:
            times.append(base + elapsed + phase.duration_s / 2)
            elapsed += phase.duration_s
            edge = base + elapsed
            times += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]
        times.append(base)
    return [float(t) for t in times]


def _times(spec, count: int) -> list:
    """``count`` times: the boundary sweep, then a clock striding through
    ~40 cycles so every phase (idle ones included) is visited often."""
    times = _boundary_times(spec)
    stride = 40 * (spec.cycle_duration_s or 1.0) / count
    clock = 0.0
    while len(times) < count:
        clock += stride
        times.append(clock)
    return times


# -- the suite ---------------------------------------------------------------

@pytest.mark.parametrize("name", SPECS)
def test_scale_at_matches_per_call_sum(name):
    spec = get_spec(name)
    for time_s in _times(spec, 2000):
        assert _bits(spec.scale_at(time_s)) == _bits(_ref_scale_at(spec, time_s))
    assert _bits(float(spec.cycle_duration_s)) == _bits(
        float(sum(phase.duration_s for phase in spec.phases))
    )


def test_the_sweep_reaches_an_idle_phase():
    spec = get_spec("terasort")
    assert sum(spec.scale_at(t) == 0.0 for t in _times(spec, DRAWS)) > 100


@pytest.mark.parametrize("name", SPECS)
def test_request_and_interarrival_streams_match_the_composed_twin(name):
    spec = get_spec(name)
    fast = WorkloadModel(spec, np.random.default_rng(SEED), WORKING_SET)
    ref = WorkloadModel(spec, np.random.default_rng(SEED), WORKING_SET)
    for time_s in _times(spec, DRAWS):
        op, lpn, pages = fast.sample_request()
        gap_us = fast.interarrival_us(time_s)
        want_op = ref.sample_op()
        want_pages = ref.sample_size_pages()
        want_lpn = ref.sample_lpn(want_pages)
        assert (op, lpn, pages) == (want_op, want_lpn, want_pages)
        assert type(lpn) is int and type(pages) is int
        assert _bits(gap_us) == _bits(_ref_interarrival_us(spec, ref.rng, time_s))
    assert fast.rng.bit_generator.state == ref.rng.bit_generator.state


@pytest.mark.parametrize("working_set", [WORKING_SET, 1500, 7, 2])
@pytest.mark.parametrize("name", SPECS)
def test_addresses_match_the_clamp_method_form(name, working_set):
    """Down to working sets smaller than a request, where the clamp bites."""
    spec = get_spec(name)
    fast = WorkloadModel(spec, np.random.default_rng(SEED), working_set)
    rng = np.random.default_rng(SEED)
    pattern = spec.pattern_factory(working_set)
    cursor = [0]
    for _ in range(3000):
        op, lpn, pages = fast.sample_request()
        assert op == ("read" if rng.random() < spec.read_ratio else "write")
        rng.random()  # the size draw
        assert lpn == _ref_address(pattern, rng, pages, cursor)
        assert 0 <= lpn <= max(working_set - pages, 0)
    assert fast.rng.bit_generator.state == rng.bit_generator.state


def _searchsorted_probes(cdf) -> list:
    """Every CDF entry with the floats on either side, plus 0 and the
    largest uniform draw below 1."""
    probes = [0.0, float(np.nextafter(1.0, 0.0))]
    for entry in cdf:
        probes += [float(np.nextafter(entry, -np.inf)), float(entry),
                   float(np.nextafter(entry, np.inf))]
    return probes


@pytest.mark.parametrize("name", SPECS)
def test_bisect_over_the_cdf_lists_equals_searchsorted(name):
    """The samplers search their CDFs with ``bisect_right`` over plain
    lists; the rank must be the ``searchsorted(u, side="right")`` of the
    cumsum-and-normalize array ``Generator.choice`` builds, at every
    entry and at its neighbouring floats."""
    spec = get_spec(name)
    model = WorkloadModel(spec, np.random.default_rng(SEED), WORKING_SET)
    size_cdf = np.asarray(spec.io_size_probs, dtype=np.float64).cumsum()
    size_cdf /= size_cdf[-1]
    searched = [(model._size_cdf, size_cdf)]
    if isinstance(model.pattern, ZipfPattern):
        zipf_cdf = model.pattern._probs.cumsum()
        zipf_cdf /= zipf_cdf[-1]
        searched.append((model.pattern._cdf, zipf_cdf))
    for listed, reference in searched:
        assert {type(entry) for entry in listed} == {float}
        for u in _searchsorted_probes(reference):
            assert bisect_right(listed, u) == int(reference.searchsorted(u, side="right")), u


@pytest.mark.parametrize("theta", [0.2, 0.99, 1.5, 3.0])
def test_zipf_bisect_equals_searchsorted_at_every_entry(theta):
    pattern = ZipfPattern(WORKING_SET, theta=theta)
    reference = pattern._probs.cumsum()
    reference /= reference[-1]
    for u in _searchsorted_probes(reference):
        assert bisect_right(pattern._cdf, u) == int(reference.searchsorted(u, side="right")), u


@pytest.mark.parametrize("name", SPECS)
def test_closed_loop_target_matches_rounded_scale(name):
    spec = get_spec(name)
    sim = Simulator()
    model = WorkloadModel(spec, np.random.default_rng(SEED), WORKING_SET)
    driver = ClosedLoopDriver(model, 0, sim, lambda request: None, 16384)
    for time_s in _times(spec, 2000):
        sim.now = time_s * 1_000_000.0
        want = int(round(spec.outstanding * _ref_scale_at(spec, sim.now / 1_000_000.0)))
        assert driver.target_outstanding() == want
