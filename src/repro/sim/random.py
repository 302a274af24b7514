"""Named, independent random streams for reproducible experiments.

Every stochastic component (each workload generator, the RL policy, GC
victim tie-breaking, ...) draws from its own named stream so that changing
one component's consumption pattern does not perturb the others.

:class:`ExactDraws` is the per-draw path of the workload samplers: the
same bits as ``Generator.random()`` and ``Generator.integers(0, n)``,
read from the bit generator's own C entry points without numpy's
per-call argument handling.
"""

from __future__ import annotations

from functools import partial

import numpy as np

#: ``below(n)`` is exact for ``1 <= n <= BELOW_LIMIT``: numpy's 32-bit
#: bounded path.  A larger ``n`` would take numpy's 64-bit path.
BELOW_LIMIT = 1 << 32


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


class ExactDraws:
    """``Generator.random()`` and ``Generator.integers(0, n)``, bit for bit,
    from the bit generator's C entry points.

    ``uniform()`` is ``next_double``, a :func:`functools.partial` over the
    generator's ctypes state, so a draw costs one foreign call.
    ``below(n)`` is numpy's 32-bit Lemire draw for ``integers(0, n)`` over
    ``next_uint32`` words bound the same way, rejection loop included: 0
    without drawing for ``n == 1``, and exact for ``1 < n <= 2**32``.  Draws
    through this object and through the generator itself interleave
    freely: both advance the one ``bit_generator`` state, its buffered
    ``has_uint32``/``uinteger`` half-word included, so the state after any
    mix equals the state after the same calls made on the generator.

    The ctypes state is a raw address into the bit generator, and the
    bound callables do not keep it alive: this object holds the generator
    (``generator``) for as long as it exists, so keep it, not a callable
    taken off it.  A caller that may see an ``n`` above ``2**32`` must
    refuse it before drawing (the address patterns refuse working sets of
    ``2**32`` pages or more); ``below`` raises for it, but only after it
    has drawn.

    >>> draws = ExactDraws(np.random.default_rng(3))
    >>> twin = np.random.default_rng(3)
    >>> draws.uniform() == twin.random(), draws.below(10) == int(twin.integers(0, 10))
    (True, True)
    """

    __slots__ = ("generator", "uniform", "below")

    def __init__(self, generator: np.random.Generator) -> None:
        self.generator = generator
        entry = generator.bit_generator.ctypes
        self.uniform = partial(entry.next_double, entry.state)
        uint32 = partial(entry.next_uint32, entry.state)

        def below(n: int) -> int:
            """``int(Generator.integers(0, n))`` for ``1 <= n <= 2**32``."""
            if n <= 1:
                if n == 1:
                    return 0
                raise ValueError(f"below() needs n >= 1, got {n}")
            m = uint32() * n
            if m & 0xFFFFFFFF < n:
                # Only here can a draw be biased (or n be out of range:
                # for n > 2**32 the low word is always below n).
                if n > BELOW_LIMIT:
                    raise ValueError(f"below() is exact only up to 2**32, got {n}")
                threshold = (BELOW_LIMIT - n) % n
                while m & 0xFFFFFFFF < threshold:
                    m = uint32() * n
            return m >> 32

        self.below = below


def _stable_hash(text: str) -> int:
    """A deterministic 63-bit hash (Python's ``hash`` is salted per run)."""
    value = 1469598103934665603  # FNV-1a offset basis
    for byte in text.encode("utf-8"):
        value ^= byte
        value *= 1099511628211
        value &= (1 << 63) - 1
    return value
