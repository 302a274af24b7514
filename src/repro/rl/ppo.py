"""Proximal Policy Optimization with a clipped surrogate objective.

Matches the algorithm of Schulman et al. (2017) as configured in Table 3:
learning rate 1e-4, discount 0.9, two 50-unit hidden layers.  Gradients
for the clipped objective, the value loss, and the entropy bonus are
derived analytically (see the inline derivation in ``_loss_gradients``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.config import RLConfig
from repro.profiling import PROFILER
from repro.rl.buffer import RolloutBuffer
from repro.rl.nets import PolicyValueNet
from repro.rl.optim import Adam
from repro.rl.policy import log_softmax


@dataclass
class PpoUpdateStats:
    """Diagnostics from one PPO update."""

    policy_loss: float
    value_loss: float
    entropy: float
    mean_kl: float
    clip_fraction: float


class PpoTrainer:
    """Runs clipped-surrogate PPO updates on a policy/value network."""

    def __init__(
        self,
        net: PolicyValueNet,
        config: Optional[RLConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.net = net
        self.config = config or RLConfig()
        self.optimizer = Adam(learning_rate=self.config.learning_rate)
        self.rng = rng or np.random.default_rng(0)

    #: Stop an update's epochs once mean KL to the behaviour policy
    #: exceeds this (standard PPO early stopping).
    KL_STOP = 0.05

    def update(self, buffer: RolloutBuffer) -> PpoUpdateStats:
        """Run ``epochs_per_update`` epochs of minibatch updates.

        Epochs stop early when the policy drifts too far (mean KL above
        :data:`KL_STOP`), which keeps the clipped objective honest.
        """
        PROFILER.count("rl.ppo_updates")
        data = buffer.get()
        states = data["states"]
        actions = data["actions"]
        log_probs = data["log_probs"]
        advantages = data["advantages"]
        returns = data["returns"]
        n = len(actions)
        if n == 0:
            raise ValueError("empty rollout buffer")
        batch_size = min(self.config.batch_size, n)
        stats: Optional[PpoUpdateStats] = None
        for _epoch in range(self.config.epochs_per_update):
            order = self.rng.permutation(n)
            for start in range(0, n, batch_size):
                # Fancy indexing with the permutation slice assembles each
                # minibatch as one gather per field — no per-row copies.
                idx = order[start : start + batch_size]
                stats = self._update_minibatch(
                    states[idx],
                    actions[idx],
                    log_probs[idx],
                    advantages[idx],
                    returns[idx],
                )
            if stats is not None and abs(stats.mean_kl) > self.KL_STOP:
                break
        if stats is None:
            raise RuntimeError("no minibatch ran (epochs_per_update < 1)")
        return stats

    def _update_minibatch(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        old_log_probs: np.ndarray,
        advantages: np.ndarray,
        returns: np.ndarray,
    ) -> PpoUpdateStats:
        logits, values, cache = self.net.forward(states)
        dlogits, dvalues, stats = self._loss_gradients(
            logits, values, actions, old_log_probs, advantages, returns
        )
        grads = self.net.backward(cache, dlogits, dvalues)
        self.optimizer.step(self.net.params, grads)
        # Parameters changed: the net may no longer share values with its
        # clone siblings, so its batching-identity token must refresh.
        self.net.mark_params_updated()
        return stats

    def _loss_gradients(
        self,
        logits: np.ndarray,
        values: np.ndarray,
        actions: np.ndarray,
        old_log_probs: np.ndarray,
        advantages: np.ndarray,
        returns: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, PpoUpdateStats]:
        """Analytic gradients of the PPO loss w.r.t. logits and values.

        Loss = -E[min(r A, clip(r) A)] + c_v E[(v - R)^2] - c_e E[H]
        with r = exp(logp - logp_old).

        d(logp_a)/dlogits = onehot(a) - softmax(logits); the surrogate's
        gradient flows through whichever branch of the min is active —
        zero when the clipped branch is active *and* the ratio is outside
        the clip band (the clip is then a constant).
        """
        cfg = self.config
        n = len(actions)
        logp_all = log_softmax(logits)
        probs = np.exp(logp_all)
        logp = logp_all[np.arange(n), actions]
        ratio = np.exp(logp - old_log_probs)

        unclipped = ratio * advantages
        clipped_ratio = np.clip(ratio, 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon)
        clipped = clipped_ratio * advantages
        surrogate = np.minimum(unclipped, clipped)

        inside_band = (ratio > 1.0 - cfg.clip_epsilon) & (ratio < 1.0 + cfg.clip_epsilon)
        active = (unclipped <= clipped) | inside_band
        # d(-surr)/dlogp; division by n folds the batch mean in.
        dsurr_dlogp = np.where(active, ratio * advantages, 0.0)
        dlogits = -(dsurr_dlogp[:, None] / n) * (
            _one_hot(actions, logits.shape[1]) - probs
        )

        # Entropy bonus: H = -sum p logp; dH/dlogits_j = -p_j (logp_j + H).
        entropy = -(probs * logp_all).sum(axis=1)
        dH_dlogits = -probs * (logp_all + entropy[:, None])
        dlogits -= cfg.entropy_coef * dH_dlogits / n

        # Value loss: c_v * mean((v - R)^2).
        dvalues = cfg.value_coef * 2.0 * (values - returns) / n

        stats = PpoUpdateStats(
            policy_loss=float(-surrogate.mean()),
            value_loss=float(((values - returns) ** 2).mean()),
            entropy=float(entropy.mean()),
            mean_kl=float((old_log_probs - logp).mean()),
            clip_fraction=float((~active).mean()),
        )
        return dlogits, dvalues, stats


def _one_hot(indices: np.ndarray, depth: int) -> np.ndarray:
    out = np.zeros((len(indices), depth))
    out[np.arange(len(indices)), indices] = 1.0
    return out
