"""Policy/value network: a tanh MLP with two linear heads.

Architecture follows Table 3: two hidden layers of 50 units.  The trunk
is shared; one head emits action logits, the other a scalar state value.
Forward passes cache activations; :meth:`PolicyValueNet.backward` returns
parameter gradients given upstream gradients on logits and values.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: ``(n, d, k)`` -> whether this BLAS computes an (n, d) @ (d, k) product
#: whose rows are bit-identical to n separate (1, d) @ (d, k) products.
#: GEMM implementations pick kernels and blocking by matrix shape, so the
#: answer is shape- and library-specific; it is probed once per shape.
_ROW_STABLE_CACHE: dict = {}

_PROBE_TRIALS = 4


def _gemm_rows_stable(n: int, d: int, k: int) -> bool:
    """Probe whether batched GEMM is row-stable for one shape.

    Runs a few fixed-seed trials comparing the full (n, d) @ (d, k)
    product against each row computed as a (1, d) @ (d, k) product.  Any
    bit mismatch marks the shape unstable, steering
    :meth:`PolicyValueNet.forward_batch` to its row-looped fallback.
    """
    key = (n, d, k)
    hit = _ROW_STABLE_CACHE.get(key)
    if hit is None:
        rng = np.random.default_rng(0x5EED + n * 1009 + d * 31 + k)
        hit = True
        for _ in range(_PROBE_TRIALS):
            a = rng.standard_normal((n, d))
            b = rng.standard_normal((d, k))
            full = a @ b
            for i in range(n):
                if not (full[i] == (a[i : i + 1] @ b)[0]).all():
                    hit = False
                    break
            if not hit:
                break
        # A pure function of (shape, BLAS build): every process, forked
        # worker or not, caches the same bit.
        _ROW_STABLE_CACHE[key] = hit
    return hit


class PolicyValueNet:
    """MLP with shared trunk and (policy, value) heads, manual backprop."""

    def __init__(
        self,
        input_dim: int,
        num_actions: int,
        hidden_sizes: tuple = (50, 50),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if input_dim <= 0 or num_actions <= 0:
            raise ValueError("input_dim and num_actions must be positive")
        rng = rng or np.random.default_rng(0)
        self.input_dim = input_dim
        self.num_actions = num_actions
        self.hidden_sizes = tuple(hidden_sizes)
        self.params: dict = {}
        sizes = [input_dim, *hidden_sizes]
        for i in range(len(hidden_sizes)):
            self.params[f"W{i}"] = _orthogonal(rng, sizes[i], sizes[i + 1], gain=np.sqrt(2))
            self.params[f"b{i}"] = np.zeros(sizes[i + 1])
        last = sizes[-1]
        self.params["Wp"] = _orthogonal(rng, last, num_actions, gain=0.01)
        self.params["bp"] = np.zeros(num_actions)
        self.params["Wv"] = _orthogonal(rng, last, 1, gain=1.0)
        self.params["bv"] = np.zeros(1)
        #: Identity token for the current parameter values: two nets with
        #: *equal* tokens are guaranteed to hold bit-identical parameters
        #: (clones share the token; any mutation mints a fresh one), which
        #: is what lets the controller stack collocated agents' states
        #: into one batched forward pass.
        self.params_version: object = object()

    @property
    def num_hidden(self) -> int:
        """Number of hidden layers in the trunk."""
        return len(self.hidden_sizes)

    def num_parameters(self) -> int:
        """Total scalar parameters across all layers."""
        return sum(p.size for p in self.params.values())

    def size_bytes(self) -> int:
        """Serialized parameter footprint in bytes."""
        return sum(p.nbytes for p in self.params.values())

    def forward(self, x: np.ndarray) -> tuple:
        """Return ``(logits, values, cache)`` for a batch of states."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        activations = [x]
        h = x
        for i in range(self.num_hidden):
            h = np.tanh(h @ self.params[f"W{i}"] + self.params[f"b{i}"])
            activations.append(h)
        logits = h @ self.params["Wp"] + self.params["bp"]
        values = (h @ self.params["Wv"] + self.params["bv"])[:, 0]
        return logits, values, activations

    def forward_batch(self, x: np.ndarray) -> tuple:
        """Batched ``(logits, values)`` bit-identical to per-row forward().

        Used when several agents share identical parameters (equal
        ``params_version``): their states stack into one matrix and the
        trunk runs once.  Bias adds and tanh are elementwise and the
        softmax reductions downstream run along each row, so the only
        operation whose batched result can differ from the per-row one is
        the GEMM itself — BLAS libraries pick kernels/blocking by shape,
        and an (n, d) product does not in general reproduce its (1, d)
        rows bit-for-bit.  A one-time probe per shape decides: on
        row-stable shapes the whole batch goes through one forward();
        otherwise each row runs the exact (1, d) GEMM sequence a
        per-agent call would, so batching never perturbs a decision.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        n = x.shape[0]
        if n > 1:
            sizes = [self.input_dim, *self.hidden_sizes]
            stable = all(
                _gemm_rows_stable(n, sizes[i], sizes[i + 1])
                for i in range(self.num_hidden)
            )
            stable = (
                stable
                and _gemm_rows_stable(n, sizes[-1], self.num_actions)
                and _gemm_rows_stable(n, sizes[-1], 1)
            )
            if not stable:
                # Inlined per-row forward: the exact (1, d) GEMM/tanh
                # sequence forward() runs, minus its activation-cache and
                # input-normalization bookkeeping (x is already a float64
                # matrix here), so the fallback costs the math alone.
                params = self.params
                weights = [
                    (params[f"W{i}"], params[f"b{i}"])
                    for i in range(self.num_hidden)
                ]
                Wp, bp = params["Wp"], params["bp"]
                Wv, bv = params["Wv"], params["bv"]
                logits = np.empty((n, self.num_actions), dtype=np.float64)
                values = np.empty(n, dtype=np.float64)
                for i in range(n):
                    h = x[i : i + 1]
                    for W, b in weights:
                        h = np.tanh(h @ W + b)
                    logits[i] = (h @ Wp + bp)[0]
                    values[i] = (h @ Wv + bv)[0, 0]
                return logits, values
        logits, values, _ = self.forward(x)
        return logits, values

    def mark_params_updated(self) -> None:
        """Mint a fresh ``params_version`` after any in-place mutation."""
        self.params_version = object()

    def backward(
        self,
        cache: list,
        dlogits: np.ndarray,
        dvalues: np.ndarray,
    ) -> dict:
        """Backpropagate gradients; returns a dict matching ``params``."""
        grads: dict = {}
        h_last = cache[-1]
        grads["Wp"] = h_last.T @ dlogits
        grads["bp"] = dlogits.sum(axis=0)
        dv = dvalues[:, None]
        grads["Wv"] = h_last.T @ dv
        grads["bv"] = dv.sum(axis=0)
        dh = dlogits @ self.params["Wp"].T + dv @ self.params["Wv"].T
        for i in range(self.num_hidden - 1, -1, -1):
            h = cache[i + 1]
            dz = dh * (1.0 - h * h)  # tanh'
            grads[f"W{i}"] = cache[i].T @ dz
            grads[f"b{i}"] = dz.sum(axis=0)
            dh = dz @ self.params[f"W{i}"].T
        return grads

    # ------------------------------------------------------------------
    # (De)serialization
    # ------------------------------------------------------------------
    def get_flat_params(self) -> np.ndarray:
        """All parameters concatenated into one vector (sorted keys)."""
        return np.concatenate([self.params[k].ravel() for k in sorted(self.params)])

    def set_flat_params(self, flat: np.ndarray) -> None:
        """Load parameters from a vector produced by get_flat_params."""
        offset = 0
        for key in sorted(self.params):
            size = self.params[key].size
            self.params[key] = flat[offset : offset + size].reshape(
                self.params[key].shape
            )
            offset += size
        if offset != flat.size:
            raise ValueError(f"expected {offset} params, got {flat.size}")
        self.params_version = object()

    def clone(self) -> "PolicyValueNet":
        """A deep copy with independent parameter arrays.

        The clone *shares* the source's ``params_version``: its values are
        bit-identical at this moment, and whichever copy mutates first
        mints its own fresh token.
        """
        other = PolicyValueNet(self.input_dim, self.num_actions, self.hidden_sizes)
        other.params = {k: v.copy() for k, v in self.params.items()}
        other.params_version = self.params_version
        return other

    def save(self, path: str) -> None:
        """Serialize architecture and parameters to an .npz file."""
        np.savez(
            path,
            input_dim=self.input_dim,
            num_actions=self.num_actions,
            hidden_sizes=np.asarray(self.hidden_sizes),
            **self.params,
        )

    @classmethod
    def load(cls, path: str) -> "PolicyValueNet":
        """Reconstruct a network from an .npz file written by save()."""
        with np.load(path) as data:
            net = cls(
                int(data["input_dim"]),
                int(data["num_actions"]),
                tuple(int(s) for s in data["hidden_sizes"]),
            )
            for key in net.params:
                net.params[key] = data[key]
        return net


def _orthogonal(rng: np.random.Generator, rows: int, cols: int, gain: float) -> np.ndarray:
    """Orthogonal init (the standard choice for PPO trunks and heads)."""
    a = rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(a if rows >= cols else a.T)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]
