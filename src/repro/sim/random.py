"""Named, independent random streams for reproducible experiments.

Every stochastic component (each workload generator, the RL policy, GC
victim tie-breaking, ...) draws from its own named stream so that changing
one component's consumption pattern does not perturb the others.
"""

from __future__ import annotations

import numpy as np


class RandomStreams:
    """A factory of independent :class:`numpy.random.Generator` streams.

    Streams are derived from a root seed and a string name, so the same
    (seed, name) pair always yields the same sequence.

    >>> streams = RandomStreams(seed=7)
    >>> a = streams.get("workload:ycsb")
    >>> b = streams.get("workload:terasort")
    >>> a is streams.get("workload:ycsb")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this factory derives all streams from."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            child_seed = np.random.SeedSequence([self._seed, _stable_hash(name)])
            self._streams[name] = np.random.default_rng(child_seed)
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a child stream factory (e.g. per experiment repetition)."""
        return RandomStreams(seed=_stable_hash(f"{self._seed}:{name}"))

    def detsan_states(self) -> "dict[str, dict]":
        """Per-stream bit-generator state, keyed by stream name.

        The state dict encodes the exact draw position, so the
        determinism sanitizer can checkpoint "who has drawn how much"
        without consuming a single value.  Streams are returned in
        creation order (dict order), which is itself deterministic.
        """
        return {
            name: dict(gen.bit_generator.state)
            for name, gen in self._streams.items()
        }


def _stable_hash(text: str) -> int:
    """A deterministic 63-bit hash (Python's ``hash`` is salted per run)."""
    value = 1469598103934665603  # FNV-1a offset basis
    for byte in text.encode("utf-8"):
        value ^= byte
        value *= 1099511628211
        value &= (1 << 63) - 1
    return value
