"""Adam optimizer (Kingma & Ba, 2015) over parameter dictionaries."""

from __future__ import annotations

import numpy as np


class Adam:
    """Adam with the standard bias-corrected moment estimates.

    The moments of all parameters live in two flat vectors, so a step is
    one run of array expressions over every parameter at once instead of
    one per key.  ``_m``/``_v`` map each key to its view into those
    vectors.  Every update is elementwise, and the clipping norm is
    reduced key by key in the gradients' order, so for C-contiguous
    gradients (what :meth:`PolicyValueNet.backward` returns) the result
    is bit-identical to updating each key on its own.
    """

    def __init__(
        self,
        learning_rate: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m: dict = {}
        self._v: dict = {}
        self._flat_m = np.zeros(0)
        self._flat_v = np.zeros(0)
        #: ``(key, slice, shape)`` per parameter, in the flat vectors' order.
        self._layout: list = []
        self._shapes: list = []
        self._t = 0

    @property
    def steps(self) -> int:
        """Number of optimizer steps taken."""
        return self._t

    def step(self, params: dict, grads: dict, max_grad_norm: float = 0.5) -> None:
        """Apply one update in place; gradients are globally norm-clipped."""
        shapes = [(key, g.shape) for key, g in grads.items()]
        if shapes != self._shapes:
            self._relayout(grads)
            self._shapes = shapes
        grad = np.concatenate([g.ravel() for g in grads.values()])
        if max_grad_norm is not None:
            # Reduced key by key, in the gradients' order: a contiguous
            # slice sums in the same pairwise order as the key's array.
            squares = grad * grad
            total = np.sqrt(
                sum(float(np.add.reduce(squares[part])) for _key, part, _shape in self._layout)
            )
            if total > max_grad_norm and total > 0:
                grad *= max_grad_norm / total
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        m, v = self._flat_m, self._flat_v
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad * grad
        update = self.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + self.epsilon)
        for key, part, shape in self._layout:
            params[key] -= update[part].reshape(shape)

    def _relayout(self, grads: dict) -> None:
        """Lay the flat moments out for ``grads``' keys and shapes.

        A key that keeps its shape keeps its moments; a new key starts
        at zero.
        """
        size = sum(g.size for g in grads.values())
        dtype = np.result_type(*grads.values())
        flat_m = np.zeros(size, dtype=dtype)
        flat_v = np.zeros(size, dtype=dtype)
        layout, new_m, new_v = [], {}, {}
        offset = 0
        for key, grad in grads.items():
            part = slice(offset, offset + grad.size)
            offset += grad.size
            layout.append((key, part, grad.shape))
            new_m[key] = flat_m[part].reshape(grad.shape)
            new_v[key] = flat_v[part].reshape(grad.shape)
            if key in self._m and self._m[key].shape == grad.shape:
                new_m[key][...] = self._m[key]
                new_v[key][...] = self._v[key]
        self._flat_m, self._flat_v = flat_m, flat_v
        self._layout, self._m, self._v = layout, new_m, new_v

    def reset(self) -> None:
        """Drop all moment estimates and the step counter."""
        self._m.clear()
        self._v.clear()
        self._layout = []
        self._shapes = []
        self._t = 0
