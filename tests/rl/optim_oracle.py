"""The per-key Adam step, kept as a test oracle.

This is ``Adam.step`` as it was before the moments moved into one flat
vector: a ``_m``/``_v`` array per parameter key, created lazily, and one
round of array expressions per key.  ``test_optim_differential.py``
requires the flat optimizer to leave parameters and moments bit-identical
to this one after every step.
"""

from __future__ import annotations

import numpy as np


class PerKeyAdam:
    """Adam with one moment pair per parameter key."""

    def __init__(
        self,
        learning_rate: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m: dict = {}
        self._v: dict = {}
        self._t = 0

    def step(self, params: dict, grads: dict, max_grad_norm: float = 0.5) -> None:
        if max_grad_norm is not None:
            total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            if total > max_grad_norm and total > 0:
                scale = max_grad_norm / total
                grads = {k: g * scale for k, g in grads.items()}
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for key, grad in grads.items():
            if key not in self._m:
                self._m[key] = np.zeros_like(grad)
                self._v[key] = np.zeros_like(grad)
            self._m[key] = self.beta1 * self._m[key] + (1 - self.beta1) * grad
            self._v[key] = self.beta2 * self._v[key] + (1 - self.beta2) * grad * grad
            m_hat = self._m[key] / bias1
            v_hat = self._v[key] / bias2
            params[key] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
