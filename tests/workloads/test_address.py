"""Tests for address patterns.

A pattern draws through :class:`~repro.sim.random.ExactDraws`; that those
draws are ``Generator.random()`` and ``Generator.integers()`` bit for bit
is ``tests/workloads/test_exact_draws.py``'s to show.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering.features import lpa_entropy
from repro.sim.random import ExactDraws
from repro.workloads import (
    HotspotPattern,
    SequentialPattern,
    UniformPattern,
    ZipfPattern,
)

RNG = lambda seed=0: ExactDraws(np.random.default_rng(seed))


@pytest.mark.parametrize(
    "pattern_cls,kwargs",
    [
        (UniformPattern, {}),
        (ZipfPattern, {"theta": 1.0}),
        (SequentialPattern, {}),
        (HotspotPattern, {}),
    ],
)
def test_samples_stay_in_bounds(pattern_cls, kwargs):
    pattern = pattern_cls(4096, **kwargs)
    rng = RNG()
    for _ in range(500):
        lpn = pattern.sample(rng, num_pages=16)
        assert 0 <= lpn <= 4096 - 16


def test_uniform_covers_space():
    pattern = UniformPattern(1000)
    rng = RNG()
    samples = [pattern.sample(rng, 1) for _ in range(2000)]
    assert min(samples) < 100
    assert max(samples) > 900


def test_zipf_skews_to_hot_pages():
    pattern = ZipfPattern(100_000, theta=1.5)
    rng = RNG()
    samples = np.array([pattern.sample(rng, 1) for _ in range(3000)])
    values, counts = np.unique(samples // pattern._bucket_pages, return_counts=True)
    # The hottest bucket should absorb far more than a uniform share.
    assert counts.max() / len(samples) > 0.05


def test_zipf_entropy_below_uniform():
    ws = 100_000
    rng = RNG()
    zipf = np.array([ZipfPattern(ws, theta=1.5).sample(rng, 1) for _ in range(3000)])
    uniform = np.array([UniformPattern(ws).sample(rng, 1) for _ in range(3000)])
    assert lpa_entropy(zipf) < lpa_entropy(uniform)


def test_higher_theta_lower_entropy():
    ws = 100_000
    rng = RNG()
    mild = np.array([ZipfPattern(ws, theta=0.6).sample(rng, 1) for _ in range(3000)])
    steep = np.array([ZipfPattern(ws, theta=2.0).sample(rng, 1) for _ in range(3000)])
    assert lpa_entropy(steep) < lpa_entropy(mild)


def test_sequential_walks_forward():
    pattern = SequentialPattern(10_000, reseek_prob=0.0)
    rng = RNG()
    first = pattern.sample(rng, 8)
    second = pattern.sample(rng, 8)
    assert second == first + 8


def test_sequential_wraps_on_exhaustion():
    pattern = SequentialPattern(64, reseek_prob=0.0)
    rng = RNG()
    for _ in range(100):
        lpn = pattern.sample(rng, 8)
        assert 0 <= lpn <= 56


def test_hotspot_concentrates():
    pattern = HotspotPattern(10_000, hot_fraction=0.1, hot_probability=0.9)
    rng = RNG()
    samples = np.array([pattern.sample(rng, 1) for _ in range(2000)])
    hot = (samples < 1000).mean()
    assert hot > 0.8


def test_invalid_working_set_rejected():
    with pytest.raises(ValueError):
        UniformPattern(0)
    with pytest.raises(ValueError):
        UniformPattern(1 << 32)  # past the 32-bit bounded draw


def test_invalid_zipf_theta_rejected():
    with pytest.raises(ValueError):
        ZipfPattern(100, theta=0.0)


def test_invalid_hotspot_params_rejected():
    with pytest.raises(ValueError):
        HotspotPattern(100, hot_fraction=1.5)
    with pytest.raises(ValueError):
        HotspotPattern(100, hot_probability=0.0)


@settings(max_examples=25, deadline=None)
@given(
    ws=st.integers(min_value=64, max_value=100_000),
    pages=st.integers(min_value=1, max_value=64),
)
def test_bounds_property(ws, pages):
    """Property: every pattern respects [0, ws - pages] for any geometry."""
    rng = RNG(1)
    for pattern in (
        UniformPattern(ws),
        ZipfPattern(ws, theta=1.0),
        SequentialPattern(ws),
        HotspotPattern(ws),
    ):
        for _ in range(10):
            lpn = pattern.sample(rng, min(pages, ws))
            assert 0 <= lpn <= max(ws - min(pages, ws), 0)
