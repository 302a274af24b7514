"""Differential suite: inverse-CDF sampling vs ``rng.choice``.

``CategoricalPolicy.act_from_logits`` draws one ``rng.random()`` and
searches the normalised CDF; ``sample_batch`` does the same for a whole
``(M, A)`` logits batch given one uniform per row.  Both must pick the
action ``sampler_oracle.choice_from_logits`` (numpy's ``Generator.choice``)
picks from the same stream, report the same log-probability bits and
leave the stream in the same state: 2 000 seeds x 5 draws, for ``(1, A)``
and ``(M, A)`` batches, including near-one-hot rows whose other entries
fall below the 1e-12 log-probability floor.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rl import CategoricalPolicy, PolicyValueNet
from repro.rl.policy import inverse_cdf, inverse_cdf_rows, softmax
from tests.rl.sampler_oracle import choice_from_logits

SEEDS = 2000
DRAWS = 5
ACTIONS = 12


def _logits(rng: np.random.Generator, rows: int) -> np.ndarray:
    """Logits from flat to near-one-hot: a row whose spike sits 60 nats
    above the rest puts ~1 on one action and < 1e-12 on every other."""
    logits = rng.standard_normal((rows, ACTIONS)) * rng.choice([0.01, 1.0, 8.0])
    spiked = rng.random(rows) < 0.3
    logits[spiked, rng.integers(ACTIONS, size=int(spiked.sum()))] += 60.0
    return logits


@pytest.mark.parametrize("rows", [1, 4])
def test_batched_inverse_cdf_matches_choice(rows):
    for seed in range(SEEDS):
        data = np.random.default_rng([seed, rows])
        oracle_rngs = [np.random.default_rng([seed, m]) for m in range(rows)]
        rngs = [np.random.default_rng([seed, m]) for m in range(rows)]
        for _ in range(DRAWS):
            logits = _logits(data, rows)
            expected = [choice_from_logits(logits[m], oracle_rngs[m]) for m in range(rows)]
            uniforms = np.array([rng.random() for rng in rngs])
            actions, logps = CategoricalPolicy.sample_batch(logits, uniforms)
            got = list(zip(actions.tolist(), logps.tolist()))
            assert got == expected, seed
        for m in range(rows):
            assert rngs[m].bit_generator.state == oracle_rngs[m].bit_generator.state


def test_act_from_logits_matches_choice():
    policy = CategoricalPolicy(PolicyValueNet(4, ACTIONS, (8,)))
    for seed in range(SEEDS):
        data = np.random.default_rng(seed)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(DRAWS):
            row = _logits(data, 1)[0]
            action, logp, value = policy.act_from_logits(row, 0.25, rng)
            assert (action, logp) == choice_from_logits(row, oracle_rng), seed
            assert value == 0.25
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_near_one_hot_rows_hit_the_log_prob_floor():
    """The suite's spiked rows really do reach the 1e-12 floor."""
    probs = softmax(np.array([60.0] + [0.0] * (ACTIONS - 1)))
    assert probs[0] == pytest.approx(1.0) and probs[1:].max() < 1e-12
    # A uniform that lands past the spike picks a floored action.
    assert inverse_cdf(softmax(np.array([0.0] * (ACTIONS - 1) + [60.0])), 0.5) == ACTIONS - 1


def test_uniform_on_a_cdf_entry_goes_right():
    """``Generator.choice`` searches with ``side="right"``: a uniform equal
    to a CDF entry picks the next action.  Random draws never land on a
    CDF entry, so the tie is checked on exactly representable values."""
    probs = np.array([0.25, 0.25, 0.5])
    cdf = probs.cumsum()
    for u in (0.0, 0.25, 0.5, 0.75):
        expected = int(cdf.searchsorted(u, side="right"))
        assert inverse_cdf(probs, u) == expected
        assert inverse_cdf_rows(probs[None], np.array([u]))[0] == expected
    assert inverse_cdf(probs, 0.25) == 1


def test_invalid_distribution_raises():
    with pytest.raises(ValueError):
        inverse_cdf(np.array([np.nan, 0.5]), 0.3)
    with pytest.raises(ValueError):
        CategoricalPolicy.sample_batch(np.array([[np.nan, 1.0]]), np.array([0.3]))
