"""Exact draws: the bit generator's C entry points vs the Generator methods.

:class:`~repro.sim.random.ExactDraws` reads ``next_double`` and
``next_uint32`` through ctypes and runs numpy's 32-bit Lemire step for a
bounded integer in Python.  Every workload sample goes through it, so every
telemetry digest depends on it giving what ``Generator.random()`` and
``Generator.integers(0, n)`` give, from the same positions, and leaving the
generator in the same state, buffered half-word included.  Here random
interleavings of ``uniform()``, ``below(n)`` and ``Generator.exponential``
on one generator are held to a twin making the Generator calls: value for
value (floats by their bits) and in the final ``bit_generator.state``.  A
numpy release that changes ``Generator.integers`` fails here, by name.
"""

from __future__ import annotations

import gc
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.random import BELOW_LIMIT, ExactDraws
from repro.workloads import (
    HotspotPattern,
    SequentialPattern,
    UniformPattern,
    WorkloadModel,
    ZipfPattern,
    get_spec,
)
from tests.workloads.test_draw_order import _ref_address

#: The edges of the 32-bit path: no draw (1), the smallest ranges, the
#: ranges either side of 2**31, 3 * 2**30 (the Lemire step rejects about a
#: quarter of its words), and the top, where numpy returns the raw word.
EDGE_N = [1, 2, 3, 2**31 - 1, 2**31, 3 * 2**30, 2**32 - 1, 2**32]

_N = st.one_of(st.sampled_from(EDGE_N), st.integers(1, 2**32))
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("uniform")),
        st.tuples(st.just("below"), _N),
        st.tuples(st.just("exponential"), st.sampled_from([1e-6, 0.5, 3.0])),
    ),
    max_size=200,
)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@settings(deadline=None)
@given(seed=st.integers(0, 2**63 - 1), ops=_OPS)
def test_interleaved_draws_match_the_generator_calls(seed, ops):
    generator = np.random.default_rng(seed)
    draws = ExactDraws(generator)
    twin = np.random.default_rng(seed)
    for op in ops:
        if op[0] == "uniform":
            assert _bits(draws.uniform()) == _bits(twin.random())
        elif op[0] == "below":
            got, want = draws.below(op[1]), twin.integers(0, op[1])
            assert type(got) is int and got == int(want), op
        else:
            assert _bits(generator.exponential(op[1])) == _bits(twin.exponential(op[1]))
    assert generator.bit_generator.state == twin.bit_generator.state


def test_a_rejecting_range_rejects_and_still_matches():
    """3 * 2**30 rejects a word a quarter of the time: about a thousand
    of these draws take the loop, and values and state still match, also
    against the Lemire step spelled out over raw 32-bit words."""
    n = 3 * 2**30
    generator = np.random.default_rng(11)
    draws = ExactDraws(generator)
    twin = np.random.default_rng(11)
    raw = np.random.default_rng(11)
    rejected = 0
    for _ in range(4000):
        got = draws.below(n)
        assert got == int(twin.integers(0, n))
        while True:
            m = int(raw.integers(0, 2**32)) * n  # one next_uint32 word
            if m & 0xFFFFFFFF >= (2**32 - n) % n:
                break
            rejected += 1
        assert got == m >> 32
    assert rejected > 800
    assert generator.bit_generator.state == twin.bit_generator.state == raw.bit_generator.state


def test_below_one_draws_nothing():
    generator = np.random.default_rng(5)
    before = generator.bit_generator.state
    assert ExactDraws(generator).below(1) == 0
    assert generator.bit_generator.state == before


@pytest.mark.parametrize("n", [BELOW_LIMIT + 1, 2**40, 2**64])
def test_a_range_past_32_bits_is_refused(n):
    with pytest.raises(ValueError):
        ExactDraws(np.random.default_rng(0)).below(n)


@pytest.mark.parametrize("n", [0, -3])
def test_an_empty_range_is_refused(n):
    with pytest.raises(ValueError):
        ExactDraws(np.random.default_rng(0)).below(n)


@pytest.mark.parametrize(
    "make",
    [UniformPattern, ZipfPattern, SequentialPattern, HotspotPattern],
)
def test_a_working_set_of_2_to_the_32_pages_is_refused(make):
    make(BELOW_LIMIT - 1)  # the largest accepted
    with pytest.raises(ValueError):
        make(BELOW_LIMIT)
    with pytest.raises(ValueError):
        WorkloadModel(get_spec("ycsb"), np.random.default_rng(0), BELOW_LIMIT)


def test_a_model_keeps_drawing_after_its_generator_is_dropped():
    """The ctypes state is a raw address: the model must own the
    generator.  Built from a generator nobody else holds, then with the
    freed memory churned by new generators, it still draws the
    reference's values."""
    spec = get_spec("vdi-web")
    model = WorkloadModel(spec, np.random.default_rng(99), 50_000)
    draws = ExactDraws(np.random.default_rng(98))
    gc.collect()
    churn = [np.random.default_rng(seed) for seed in range(200)]
    ref = np.random.default_rng(99)
    pattern = spec.pattern_factory(50_000)
    cursor = [0]
    for _ in range(2000):
        op, lpn, pages = model.sample_request()
        assert op == ("read" if ref.random() < spec.read_ratio else "write")
        ref.random()  # the size draw
        assert lpn == _ref_address(pattern, ref, pages, cursor)
    assert model.rng.bit_generator.state == ref.bit_generator.state
    twin = np.random.default_rng(98)
    assert [draws.uniform() for _ in range(100)] == [twin.random() for _ in range(100)]
    assert draws.generator.bit_generator.state == twin.bit_generator.state
    del churn


class _GeneratorCalls:
    """A stand-in offering only ``Generator.random`` and
    ``Generator.integers``, counting each; nothing else (no
    ``bit_generator``, so no route to the C entry points)."""

    def __init__(self, seed: int) -> None:
        self._generator = np.random.default_rng(seed)
        self.calls = {"random": 0, "integers": 0}

    def random(self):
        self.calls["random"] += 1
        return self._generator.random()

    def integers(self, low, high):
        self.calls["integers"] += 1
        return self._generator.integers(low, high)


@pytest.mark.parametrize(
    "pattern_cls,kwargs,uses_random",
    [
        (UniformPattern, {}, False),
        (ZipfPattern, {"theta": 1.0}, True),
        (SequentialPattern, {"reseek_prob": 0.2}, True),
        (HotspotPattern, {}, True),
    ],
)
def test_the_references_are_generator_calls(pattern_cls, kwargs, uses_random):
    """``test_draw_order.py``'s ``_ref_address`` draws through
    ``Generator.random`` / ``Generator.integers`` alone (it runs on a
    stand-in that has nothing else), and the patterns of
    ``test_address.py``, drawing through :class:`ExactDraws`, equal it."""
    working_set = 4096
    pattern = pattern_cls(working_set, **kwargs)
    reference = pattern_cls(working_set, **kwargs)
    draws = ExactDraws(np.random.default_rng(3))
    calls = _GeneratorCalls(3)
    cursor = [0]
    for pages in [1, 16, 4, 64] * 250:
        assert pattern.sample(draws, pages) == _ref_address(reference, calls, pages, cursor)
    assert calls.calls["integers"] > 0
    assert (calls.calls["random"] > 0) == uses_random
    assert draws.generator.bit_generator.state == calls._generator.bit_generator.state
