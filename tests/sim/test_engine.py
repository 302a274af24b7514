"""Tests for the discrete-event engine."""

import pytest



def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0
    assert sim.now_seconds == 0.0


def test_events_fire_in_time_order(sim):
    fired = []
    sim.schedule(10.0, fired.append, "late")
    sim.schedule(5.0, fired.append, "early")
    sim.schedule(7.5, fired.append, "middle")
    sim.run()
    assert fired == ["early", "middle", "late"]


def test_same_time_events_fire_in_schedule_order(sim):
    fired = []
    for tag in range(5):
        sim.schedule(3.0, fired.append, tag)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_clock_advances_to_event_time(sim):
    times = []
    sim.schedule(42.0, lambda: times.append(sim.now))
    sim.run()
    assert times == [42.0]
    assert sim.now == 42.0


def test_negative_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_absolute_time(sim):
    sim.schedule(10.0, lambda: None)
    sim.run()
    fired = []
    sim.schedule_at(25.0, fired.append, "abs")
    sim.run()
    assert fired == ["abs"]
    assert sim.now == 25.0


def test_run_until_stops_at_boundary(sim):
    fired = []
    sim.schedule(5.0, fired.append, "in")
    sim.schedule(15.0, fired.append, "out")
    count = sim.run_until(10.0)
    assert count == 1
    assert fired == ["in"]
    assert sim.now == 10.0


def test_run_until_includes_boundary_events(sim):
    fired = []
    sim.schedule(10.0, fired.append, "edge")
    sim.run_until(10.0)
    assert fired == ["edge"]


def test_run_until_past_rejected(sim):
    sim.run_until(10.0)
    with pytest.raises(ValueError):
        sim.run_until(5.0)


def test_run_until_seconds(sim):
    fired = []
    sim.schedule(1_500_000.0, fired.append, "x")
    sim.run_until_seconds(2.0)
    assert fired == ["x"]
    assert sim.now_seconds == 2.0


def test_events_scheduled_during_events(sim):
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_run_max_events(sim):
    for _ in range(10):
        sim.schedule(1.0, lambda: None)
    assert sim.run(max_events=4) == 4
    assert sim.pending_events == 6


def test_step_returns_false_when_empty(sim):
    assert sim.step() is False


def test_run_until_at_current_time_is_noop(sim):
    sim.run_until(10.0)
    assert sim.run_until(10.0) == 0
    assert sim.now == 10.0


def test_run_until_at_current_time_fires_zero_delay_events(sim):
    sim.run_until(10.0)
    fired = []
    sim.schedule(0.0, fired.append, "now")
    assert sim.run_until(10.0) == 1
    assert fired == ["now"]
    assert sim.now == 10.0


def test_equal_timestamp_ordering_mixed_schedule_calls(sim):
    fired = []
    sim.schedule_at(20.0, fired.append, "first")
    sim.schedule(20.0, fired.append, "second")
    sim.schedule_at(20.0, fired.append, "third")
    sim.run()
    assert fired == ["first", "second", "third"]


def test_equal_timestamp_ordering_survives_earlier_event(sim):
    fired = []
    sim.schedule(10.0, fired.append, "a")
    sim.schedule(10.0, fired.append, "b")
    sim.schedule(5.0, fired.append, "early")
    sim.run()
    assert fired == ["early", "a", "b"]
