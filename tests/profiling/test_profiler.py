"""Tests for the profiling layer."""

import pickle

from repro.profiling import Profiler, format_profile, merge_profiles


def test_disabled_profiler_records_nothing():
    profiler = Profiler()
    profiler.count("hits")
    assert profiler.counters() == {}
    assert profiler.snapshot() == {"counters": {}}


def test_enabled_scope_records_and_restores():
    profiler = Profiler()
    with profiler.enabled_scope():
        assert profiler.enabled
        profiler.count("hits", 3)
        profiler.count("hits")
    assert not profiler.enabled
    profiler.count("hits")  # disabled again: dropped
    assert profiler.counters()["hits"] == 4


def test_enabled_scope_restores_prior_enabled_state():
    profiler = Profiler()
    profiler.enable()
    with profiler.enabled_scope():
        pass
    assert profiler.enabled


def test_reset_clears_data():
    profiler = Profiler()
    profiler.enable()
    profiler.count("c")
    profiler.reset()
    assert profiler.snapshot() == {"counters": {}}


def test_snapshot_is_picklable():
    profiler = Profiler()
    profiler.enable()
    profiler.count("c", 2)
    snap = pickle.loads(pickle.dumps(profiler.snapshot()))
    assert snap == {"counters": {"c": 2}}


def test_format_profile_renders_zero_call_rows():
    # A counter bumped by zero (e.g. ``sim.events`` for a run_until that
    # fired nothing) still gets its row.
    profiler = Profiler()
    profiler.enable()
    profiler.count("quiet.counter", 0)
    text = format_profile(profiler.snapshot())
    assert text.split() == ["quiet.counter", "0"]


def test_merge_profiles_sums():
    a = {"counters": {"c": 1}}
    b = {"counters": {"c": 4, "d": 2}}
    merged = merge_profiles([a, b, {}, None])
    assert merged == {"counters": {"c": 5, "d": 2}}


def test_format_profile_renders_sections_and_counters():
    snap = {"counters": {"sim.events": 9, "ftl.io_requests": 12}}
    lines = format_profile(snap).splitlines()
    # One aligned row per counter, sorted by name.
    assert [line.split() for line in lines] == [
        ["ftl.io_requests", "12"],
        ["sim.events", "9"],
    ]
    assert len({len(line) for line in lines}) == 1


def test_format_profile_empty():
    assert format_profile({}) == "(no profile data)"
