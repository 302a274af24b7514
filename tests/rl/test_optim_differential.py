"""Differential suite: the flat-moment Adam vs the per-key oracle.

``Adam`` keeps every parameter's moments in two flat vectors and updates
them in one pass; ``optim_oracle.PerKeyAdam`` is the per-key loop it
replaced.  Twin parameter dicts take the same gradients for 50 steps, and
after every step parameters and moments must be equal bit for bit, with
norm clipping on (and biting) and off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rl import Adam
from tests.rl.optim_oracle import PerKeyAdam

STEPS = 50


def _bits(array) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def _random_params(rng: np.random.Generator) -> dict:
    # The policy net's shapes: the larger matrices span several of
    # numpy's 128-element pairwise-summation blocks.
    shapes = {
        "W0": (22, 50), "b0": (50,), "W1": (50, 50), "b1": (50,),
        "Wp": (50, 12), "bp": (12,), "Wv": (50, 1), "bv": (1,),
    }
    return {key: rng.standard_normal(shape) for key, shape in shapes.items()}


@pytest.mark.parametrize("max_grad_norm", [None, 0.5, 1e6])
@pytest.mark.parametrize("seed", range(6))
def test_flat_adam_matches_per_key_oracle(seed, max_grad_norm):
    rng = np.random.default_rng(seed)
    params = _random_params(rng)
    twin = {key: value.copy() for key, value in params.items()}
    flat, oracle = Adam(learning_rate=1e-2), PerKeyAdam(learning_rate=1e-2)
    for _ in range(STEPS):
        scale = float(rng.choice([1e-3, 1.0, 50.0]))
        grads = {key: scale * rng.standard_normal(value.shape) for key, value in params.items()}
        flat.step(params, grads, max_grad_norm=max_grad_norm)
        oracle.step(twin, {k: g.copy() for k, g in grads.items()}, max_grad_norm=max_grad_norm)
        for key in params:
            assert _bits(params[key]) == _bits(twin[key]), key
            assert _bits(flat._m[key]) == _bits(oracle._m[key]), key
            assert _bits(flat._v[key]) == _bits(oracle._v[key]), key
    assert flat.steps == oracle._t == STEPS


def test_flat_adam_leaves_gradients_untouched():
    rng = np.random.default_rng(0)
    params = _random_params(rng)
    grads = {key: 1e3 * rng.standard_normal(value.shape) for key, value in params.items()}
    before = {key: g.copy() for key, g in grads.items()}
    Adam().step(params, grads, max_grad_norm=0.5)
    assert all(_bits(grads[key]) == _bits(before[key]) for key in grads)


def test_new_key_starts_at_zero_and_old_keys_keep_their_moments():
    rng = np.random.default_rng(1)
    params = _random_params(rng)
    flat, oracle = Adam(), PerKeyAdam()
    twin = {key: value.copy() for key, value in params.items()}
    for step in range(4):
        if step == 2:
            params["extra"] = np.zeros(4)
            twin["extra"] = np.zeros(4)
        grads = {key: rng.standard_normal(value.shape) for key, value in params.items()}
        flat.step(params, grads)
        oracle.step(twin, grads)
    for key in params:
        assert _bits(params[key]) == _bits(twin[key]), key
        assert _bits(flat._m[key]) == _bits(oracle._m[key]), key
