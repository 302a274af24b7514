"""Token-bucket rate limiter used by the software-isolated baseline.

Mirrors blk-throttle-style throttling (Section 4.1): each vSSD receives a
byte budget that refills at a fixed rate up to a burst ceiling.  Requests
may only dispatch once the bucket holds enough tokens for their size.
"""

from __future__ import annotations

import math


class TokenBucket:
    """A lazily refilled token bucket.

    Tokens are bytes.  ``rate_bytes_per_us`` tokens accrue per microsecond
    up to ``burst_bytes``.  The stored pair is the level at the last
    consume and its time; reads compute the refilled level from it and
    never write it, so only :meth:`consume` changes the bucket.
    """

    def __init__(self, rate_bytes_per_us: float, burst_bytes: float, now: float = 0.0) -> None:
        if rate_bytes_per_us <= 0:
            raise ValueError("rate must be positive")
        if burst_bytes <= 0:
            raise ValueError("burst must be positive")
        self.rate = rate_bytes_per_us
        self.burst = burst_bytes
        self._tokens = burst_bytes
        self._last = now

    def tokens(self, now: float) -> float:
        """Token level at ``now``: the stored level plus the refill since."""
        if now > self._last:
            return min(self.burst, self._tokens + (now - self._last) * self.rate)
        return self._tokens

    def can_consume(self, amount: float, now: float) -> bool:
        """Whether ``amount`` tokens are available at ``now``."""
        return self.tokens(now) >= amount

    def consume(self, amount: float, now: float) -> bool:
        """Take ``amount`` tokens if available; returns success."""
        level = self.tokens(now)
        if level < amount:
            return False
        self._tokens = level - amount
        self._last = max(now, self._last)
        return True

    def available_at(self, amount: float) -> float:
        """The first instant ``t`` with ``can_consume(amount, t)``.

        A function of the stored pair alone, so it reads the same until
        the next consume.  ``math.inf`` above ``burst_bytes``: the bucket
        caps at the burst.
        """
        if amount > self.burst:
            return math.inf
        tokens, last, rate = self._tokens, self._last, self.rate
        if tokens >= amount:
            return last
        # Below the burst, ``tokens + (t - last) * rate >= amount`` is the
        # test and it is monotone in t: widen a bracket around the closed
        # form by doubling steps, then bisect it down to adjacent floats.
        guess = last + (amount - tokens) / rate
        short, covered, step = guess, guess, math.ulp(guess)
        while tokens + (covered - last) * rate < amount:
            short, covered, step = covered, covered + step, 2 * step
        step = math.ulp(guess)
        while short == covered or tokens + (short - last) * rate >= amount:
            covered, short, step = short, max(last, short - step), 2 * step
        while short < (mid := short + (covered - short) / 2) < covered:
            if tokens + (mid - last) * rate >= amount:
                covered = mid
            else:
                short = mid
        return covered
