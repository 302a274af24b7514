"""Logical-address patterns controlling workload locality.

The paper's clustering separates workloads partly by *LPA entropy* — the
entropy of the logical-page-address distribution.  These patterns span
that axis: uniform (maximum entropy), Zipf (tunable skew; YCSB-B's low
entropy comes from a steep Zipf), sequential runs (scan-like batch jobs),
and hotspot mixtures.
"""

from __future__ import annotations

import abc

import numpy as np


class AddressPattern(abc.ABC):
    """Samples starting LPNs for requests within a working set."""

    def __init__(self, working_set_pages: int) -> None:
        if working_set_pages <= 0:
            raise ValueError("working_set_pages must be positive")
        self.working_set_pages = working_set_pages

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, num_pages: int) -> int:
        """Return a starting LPN such that the request stays in bounds.

        In bounds means ``min(lpn, max(working_set_pages - num_pages, 0))``;
        no pattern draws a negative LPN, so each ``sample`` applies just
        that upper clamp inline (one call per request lands here).
        """


class UniformPattern(AddressPattern):
    """Uniform random addresses — maximum LPA entropy."""

    def sample(self, rng: np.random.Generator, num_pages: int) -> int:
        """Uniform LPN over the working set."""
        upper = max(self.working_set_pages - num_pages, 1)
        return int(rng.integers(0, upper))


class ZipfPattern(AddressPattern):
    """Zipf-distributed addresses over shuffled page buckets.

    ``theta`` > 0 skews accesses toward a small set of hot pages; larger
    theta means lower entropy.  Bucketing keeps sampling O(1) while
    shuffling decorrelates hotness from address order.
    """

    BUCKETS = 1024

    def __init__(self, working_set_pages: int, theta: float = 0.99, seed: int = 1234) -> None:
        super().__init__(working_set_pages)
        if theta <= 0:
            raise ValueError("theta must be positive")
        self.theta = theta
        ranks = np.arange(1, self.BUCKETS + 1, dtype=np.float64)
        weights = 1.0 / np.power(ranks, theta)
        self._probs = weights / weights.sum()
        # Precomputed inverse-CDF: Generator.choice rebuilds this cumsum
        # (1024 elements) and re-validates p on *every* draw; hoisting it
        # and sampling via one uniform + searchsorted is bit-identical
        # (same cdf, same single rng.random() stream consumption).
        self._cdf = self._probs.cumsum()
        self._cdf /= self._cdf[-1]
        shuffle_rng = np.random.default_rng(seed)
        self._bucket_order = shuffle_rng.permutation(self.BUCKETS)
        self._bucket_pages = max(working_set_pages // self.BUCKETS, 1)
        #: First page of each rank's bucket, as Python ints.
        self._bucket_base = (self._bucket_order * self._bucket_pages).tolist()

    def sample(self, rng: np.random.Generator, num_pages: int) -> int:
        """Zipf-weighted bucket, uniform offset within it."""
        base = self._bucket_base[self._cdf.searchsorted(rng.random(), side="right")]
        lpn = base + int(rng.integers(0, self._bucket_pages))
        limit = self.working_set_pages - num_pages
        return min(lpn, limit) if limit > 0 else 0


class SequentialPattern(AddressPattern):
    """Long sequential runs with occasional random reseeks.

    Models scan-heavy batch jobs (TeraSort, PageRank): the cursor walks
    forward; with probability ``reseek_prob`` it jumps to a random spot.
    """

    def __init__(self, working_set_pages: int, reseek_prob: float = 0.01) -> None:
        super().__init__(working_set_pages)
        if not 0.0 <= reseek_prob <= 1.0:
            raise ValueError("reseek_prob must be in [0, 1]")
        self.reseek_prob = reseek_prob
        self._cursor = 0

    def sample(self, rng: np.random.Generator, num_pages: int) -> int:
        """Advance the cursor; reseek with the configured probability."""
        if self._cursor + num_pages > self.working_set_pages or rng.random() < self.reseek_prob:
            self._cursor = int(rng.integers(0, max(self.working_set_pages - num_pages, 1)))
        lpn = self._cursor
        self._cursor += num_pages
        limit = self.working_set_pages - num_pages
        return min(lpn, limit) if limit > 0 else 0


class HotspotPattern(AddressPattern):
    """A hot region absorbing most accesses, the rest spread uniformly."""

    def __init__(
        self,
        working_set_pages: int,
        hot_fraction: float = 0.2,
        hot_probability: float = 0.8,
    ) -> None:
        super().__init__(working_set_pages)
        if not 0.0 < hot_fraction < 1.0:
            raise ValueError("hot_fraction must be in (0, 1)")
        if not 0.0 < hot_probability < 1.0:
            raise ValueError("hot_probability must be in (0, 1)")
        self.hot_fraction = hot_fraction
        self.hot_probability = hot_probability
        self._hot_pages = max(int(working_set_pages * hot_fraction), 1)

    def sample(self, rng: np.random.Generator, num_pages: int) -> int:
        """Hot region with the configured probability, else the cold rest."""
        hot_pages = self._hot_pages
        limit = self.working_set_pages - num_pages
        if rng.random() < self.hot_probability:
            lpn = int(rng.integers(0, max(hot_pages - num_pages, 1)))
        else:
            lpn = int(rng.integers(hot_pages, max(limit, hot_pages + 1)))
        return min(lpn, limit) if limit > 0 else 0
