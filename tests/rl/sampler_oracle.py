"""The per-agent ``rng.choice`` sampler, kept as a test oracle.

This is ``CategoricalPolicy.act_from_logits`` as it was before the draw
became ``rng.random()`` plus an inverse CDF: numpy's own
``Generator.choice(A, p=probs)``.  ``test_sampler_differential.py``
requires the single-row and the batched inverse CDF to pick the same
actions, report the same log-probabilities and leave every stream where
this one does.
"""

from __future__ import annotations

import numpy as np

from repro.rl.policy import softmax


def choice_from_logits(logits_row: np.ndarray, rng: np.random.Generator) -> tuple:
    """``(action, log_prob)`` drawn with ``rng.choice`` from one logits row."""
    probs = softmax(logits_row)
    action = int(rng.choice(len(probs), p=probs))
    logp = float(np.log(max(probs[action], 1e-12)))
    return action, logp
