"""Tests for the I/O request model."""

import pytest

from repro.sched import IoRequest, Priority


def _req(**kwargs):
    defaults = dict(
        vssd_id=0, op="read", lpn=0, num_pages=1, page_size=16384, submit_time=0.0
    )
    defaults.update(kwargs)
    return IoRequest(**defaults)


def test_size_bytes():
    assert _req(num_pages=4).size_bytes == 4 * 16384


def test_is_read():
    assert _req(op="read").is_read
    assert not _req(op="write").is_read


def test_latency_requires_completion():
    request = _req(submit_time=100.0)
    with pytest.raises(RuntimeError):
        _ = request.latency_us
    request.dispatch_time = 150.0
    request.complete_time = 400.0
    assert request.latency_us == 300.0
    assert request.queue_delay_us == 50.0


def test_queue_delay_requires_dispatch():
    with pytest.raises(RuntimeError):
        _ = _req().queue_delay_us


def test_priority_ordering():
    assert Priority.LOW < Priority.MEDIUM < Priority.HIGH
