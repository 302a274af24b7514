"""Tests for the token-bucket rate limiter."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sched import TokenBucket


def test_starts_full():
    bucket = TokenBucket(rate_bytes_per_us=1.0, burst_bytes=100.0)
    assert bucket.tokens(0.0) == 100.0


def test_consume_depletes():
    bucket = TokenBucket(1.0, 100.0)
    assert bucket.consume(60.0, now=0.0)
    assert bucket.tokens(0.0) == pytest.approx(40.0)


def test_consume_fails_when_insufficient():
    bucket = TokenBucket(1.0, 100.0)
    bucket.consume(100.0, now=0.0)
    assert not bucket.consume(1.0, now=0.0)


def test_refill_over_time():
    bucket = TokenBucket(2.0, 100.0)
    bucket.consume(100.0, now=0.0)
    assert bucket.tokens(10.0) == pytest.approx(20.0)


def test_refill_caps_at_burst():
    bucket = TokenBucket(2.0, 100.0)
    assert bucket.tokens(1_000_000.0) == 100.0


def test_available_at():
    bucket = TokenBucket(2.0, 100.0)
    bucket.consume(100.0, now=0.0)
    assert bucket.available_at(50.0) == 25.0
    assert bucket.available_at(0.0) == 0.0


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=0.0, max_value=1e9),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_available_at_is_the_first_covering_instant(rate, last, spent, wanted):
    """The retry instant is exact: the bucket covers the amount there and
    one ulp earlier it does not."""
    burst = 64 * 1024.0
    bucket = TokenBucket(rate, burst, now=last)
    bucket.consume(spent * burst, now=last)
    amount = wanted * burst
    when = bucket.available_at(amount)
    assert bucket.can_consume(amount, when)
    if when > last:
        assert not bucket.can_consume(amount, math.nextafter(when, -math.inf))


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        TokenBucket(0.0, 10.0)
    with pytest.raises(ValueError):
        TokenBucket(1.0, 0.0)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=50.0),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_tokens_never_negative_or_above_burst(steps):
    """Invariant: token level stays within [0, burst] under any trace."""
    bucket = TokenBucket(rate_bytes_per_us=1.5, burst_bytes=64.0)
    now = 0.0
    for delta, amount in steps:
        now += delta
        bucket.consume(amount, now)
        level = bucket.tokens(now)
        assert -1e-9 <= level <= 64.0 + 1e-9


def test_zero_byte_request_always_passes():
    """A zero-byte request needs no tokens, even from an empty bucket."""
    bucket = TokenBucket(1.0, 100.0)
    bucket.consume(100.0, now=0.0)
    assert bucket.can_consume(0.0, now=0.0)
    assert bucket.consume(0.0, now=0.0)
    assert bucket.available_at(0.0) == 0.0
    assert bucket.tokens(0.0) == pytest.approx(0.0)


def test_request_exceeding_burst_never_available():
    """Regression: a request larger than the burst ceiling used to get a
    finite wait estimate although the bucket can never hold that much."""
    bucket = TokenBucket(rate_bytes_per_us=2.0, burst_bytes=100.0)
    assert bucket.available_at(101.0) == math.inf
    # Even after arbitrarily long refill the request stays unserviceable.
    assert not bucket.can_consume(101.0, now=1e12)
    assert bucket.available_at(101.0) == math.inf
    # Exactly-burst requests remain satisfiable.
    assert bucket.can_consume(100.0, now=1e12)
    assert bucket.available_at(100.0) <= 1e12


def test_oversized_head_does_not_poison_retry_schedule():
    """next_eligible_time skips heads that can never fit their bucket."""
    from repro.sched.policies import TokenBucketStridePolicy
    from repro.sched.request import IoRequest

    policy = TokenBucketStridePolicy(rate_bytes_per_us=1.0, burst_bytes=64.0)
    policy.register_vssd(1)
    policy.register_vssd(2)
    policy._buckets[1].consume(64.0, now=0.0)
    policy._buckets[2].consume(64.0, now=0.0)
    oversized = IoRequest(vssd_id=1, op="write", lpn=0, num_pages=1, page_size=1000, submit_time=0.0)
    normal = IoRequest(vssd_id=2, op="write", lpn=0, num_pages=1, page_size=32, submit_time=0.0)
    queues = {1: [oversized], 2: [normal]}
    when = policy.next_eligible_time(0.0, queues)
    # Only the satisfiable head contributes a retry time: 32 bytes at
    # 1 byte/us from an empty bucket.
    assert when == pytest.approx(32.0)
    # With only the oversized head queued there is nothing to retry for.
    assert policy.next_eligible_time(0.0, {1: [oversized]}) is None


def test_refill_no_float_drift_over_long_horizon():
    """Many reads leave the bucket exactly as one read would: a read
    computes the refill and never stores it."""
    rate, burst = 0.1, 1e9
    stepped = TokenBucket(rate, burst)
    jumped = TokenBucket(rate, burst)
    stepped.consume(burst, now=0.0)
    jumped.consume(burst, now=0.0)
    now = 0.0
    for _ in range(10_000):
        now += 123.456
        stepped.tokens(now)
        stepped.can_consume(burst, now)
        stepped.available_at(burst)
    assert stepped.tokens(now) == jumped.tokens(now)
    assert (stepped._tokens, stepped._last) == (jumped._tokens, jumped._last)


def test_refill_is_monotone_under_repeated_queries():
    """Querying tokens() repeatedly at the same instant changes nothing."""
    bucket = TokenBucket(2.0, 100.0)
    bucket.consume(100.0, now=0.0)
    first = bucket.tokens(5.0)
    for _ in range(100):
        assert bucket.tokens(5.0) == first
