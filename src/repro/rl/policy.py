"""Categorical action sampling over the network's logits."""

from __future__ import annotations

import numpy as np

from repro.rl.nets import PolicyValueNet


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    return np.exp(log_softmax(logits))


def inverse_cdf(probs: np.ndarray, u: float) -> int:
    """The action ``rng.choice(len(probs), p=probs)`` picks for uniform ``u``.

    ``Generator.choice`` with ``p`` draws one ``rng.random()``, normalises
    the cumulative sum of ``p`` by its last entry and returns
    ``searchsorted(u, side="right")`` on it.  This is that computation
    without the call's per-draw validation of ``p`` (a softmax output is
    a distribution; only a zero or NaN sum is caught), and the caller
    draws ``u`` itself: one ``rng.random()``, the same stream position.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    if cdf[-1] != 1.0:  # x / x is exactly 1 unless the sum is 0 or NaN
        raise ValueError("probabilities do not form a distribution")
    return int(cdf.searchsorted(u, side="right"))


def inverse_cdf_rows(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """:func:`inverse_cdf` for every row of an ``(M, A)`` batch at once.

    On a non-decreasing CDF, ``searchsorted(u, side="right")`` is the
    number of entries at or below ``u``, which one comparison counts for
    all rows; each row's cumulative sum is the same sequential sum a 1-D
    ``cumsum`` takes.
    """
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    if not (cdf[:, -1] == 1.0).all():
        raise ValueError("probabilities do not form a distribution")
    return (cdf <= uniforms[:, None]).sum(axis=1)


class CategoricalPolicy:
    """Samples discrete actions and reports log-probabilities/values."""

    def __init__(self, net: PolicyValueNet) -> None:
        self.net = net

    @property
    def num_actions(self) -> int:
        """Size of the discrete action set."""
        return self.net.num_actions

    def act(self, state: np.ndarray, rng: np.random.Generator) -> tuple:
        """Sample an action for one state.

        Returns ``(action, log_prob, value)``.
        """
        logits, values, _ = self.net.forward(state)
        probs = softmax(logits)[0]
        action = inverse_cdf(probs, rng.random())
        logp = float(np.log(max(probs[action], 1e-12)))
        return action, logp, float(values[0])

    def act_from_logits(
        self, logits_row: np.ndarray, value: float, rng: np.random.Generator
    ) -> tuple:
        """Sample from a precomputed logits row (batched inference path).

        Bit-identical to :meth:`act`: log-softmax on a 1-D row reduces
        along the same contiguous axis as row 0 of a (1, A) matrix, and
        the draw takes one ``rng.random()`` from this agent's stream, as
        the unbatched call does.  Both equal ``rng.choice(A, p=probs)``
        (see :func:`inverse_cdf`).
        """
        probs = softmax(logits_row)
        action = inverse_cdf(probs, rng.random())
        logp = float(np.log(max(probs[action], 1e-12)))
        return action, logp, float(value)

    @staticmethod
    def sample_batch(logits: np.ndarray, uniforms: np.ndarray) -> tuple:
        """Sample one action per row of an ``(M, A)`` logits batch.

        ``uniforms[m]`` is the ``rng.random()`` that row ``m``'s agent
        drew from its own stream, so row ``m`` of the result equals
        :meth:`act_from_logits` on ``logits[m]`` with that stream.
        Returns ``(actions, log_probs)`` as ``(M,)`` arrays.
        """
        probs = softmax(logits)
        actions = inverse_cdf_rows(probs, uniforms)
        picked = probs[np.arange(len(actions)), actions]
        return actions, np.log(np.maximum(picked, 1e-12))

    def act_greedy_from_logits(self, logits_row: np.ndarray, value: float) -> tuple:
        """Greedy pick from a precomputed logits row (batched path).

        Bit-identical to :meth:`act_greedy` given the same logits row.
        """
        logp_all = log_softmax(logits_row)
        action = int(np.argmax(logits_row))
        return action, float(logp_all[action]), float(value)

    def act_deterministic(self, state: np.ndarray) -> int:
        """Greedy action (used at deployment when exploration is off)."""
        logits, _values, _ = self.net.forward(state)
        return int(np.argmax(logits[0]))

    def act_greedy(self, state: np.ndarray) -> tuple:
        """Greedy action with its log-probability and the state value.

        Deployment follows the paper — "an agent will select the RL
        action that earns the highest predicted reward" — while the
        log-probability still feeds the periodic PPO fine-tuning.
        """
        logits, values, _ = self.net.forward(state)
        logp_all = log_softmax(logits)[0]
        action = int(np.argmax(logits[0]))
        return action, float(logp_all[action]), float(values[0])

    def action_distribution(self, state: np.ndarray) -> np.ndarray:
        """Action probabilities for one state."""
        logits, _values, _ = self.net.forward(state)
        return softmax(logits)[0]

    def value(self, state: np.ndarray) -> float:
        """The value head's estimate for one state."""
        _logits, values, _ = self.net.forward(state)
        return float(values[0])
