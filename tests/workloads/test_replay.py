"""Tests for trace loading, saving, and replay."""

import numpy as np
import pytest

from repro.config import SSDConfig
from repro.sched import FifoPolicy, IoDispatcher
from repro.sim import Simulator
from repro.ssd import Ssd, VssdFtl
from repro.workloads import (
    TraceReplayDriver,
    get_spec,
    load_msr_trace,
    load_trace,
    save_trace,
    synthesize_trace,
    trace_summary,
)

MSR_SAMPLE = """128166372003061629,hm,0,Read,383496192,32768,1331
128166372016382155,hm,0,Write,310378496,16384,4891
128166372026382245,hm,0,Read,383528960,65536,2204
"""


@pytest.fixture
def msr_file(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_text(MSR_SAMPLE)
    return path


def test_load_msr_trace(msr_file):
    trace = load_msr_trace(msr_file, page_size=16384)
    assert len(trace) == 3
    assert trace.times_us[0] == 0.0  # rebased
    assert (np.diff(trace.times_us) >= 0).all()
    assert list(trace.ops) == [1, 0, 1]
    assert list(trace.sizes_pages) == [2, 1, 4]
    assert trace.lpns[0] == 383496192 // 16384


def test_load_msr_respects_max_requests(msr_file):
    trace = load_msr_trace(msr_file, max_requests=2)
    assert len(trace) == 2


def test_load_msr_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not,a,trace\n")
    with pytest.raises(ValueError):
        load_msr_trace(path)


def test_load_msr_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        load_msr_trace(path)


def test_save_load_roundtrip(tmp_path):
    original = synthesize_trace(get_spec("ycsb"), np.random.default_rng(0), 100)
    path = tmp_path / "trace.csv"
    save_trace(original, path)
    loaded = load_trace(path)
    assert loaded.name == original.name
    assert loaded.page_size == original.page_size
    assert np.allclose(loaded.times_us, original.times_us, atol=1e-3)
    assert (loaded.lpns == original.lpns).all()
    assert (loaded.ops == original.ops).all()


def test_load_trace_rejects_other_csv(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_trace(path)


@pytest.mark.parametrize(
    "column, value",
    [("sizes_pages", 0), ("sizes_pages", -2), ("ops", 2), ("lpns", -1)],
)
def test_load_trace_rejects_an_invalid_row(tmp_path, column, value):
    """A saved trace is outside input: a bad row fails at load, naming
    the file and the row, not later inside the replay."""
    trace = synthesize_trace(get_spec("ycsb"), np.random.default_rng(0), 5)
    getattr(trace, column)[3] = value
    path = tmp_path / "trace.csv"
    save_trace(trace, path)
    with pytest.raises(ValueError, match=r"trace\.csv: row 6 "):
        load_trace(path)


def test_trace_summary():
    trace = synthesize_trace(get_spec("terasort"), np.random.default_rng(0), 500)
    summary = trace_summary(trace)
    assert summary["requests"] == 500
    assert 0.0 <= summary["read_fraction"] <= 1.0
    assert summary["mean_bw_mbps"] > 0
    assert summary["footprint_pages"] > 0


class TestReplayDriver:
    def _stack(self):
        config = SSDConfig(
            num_channels=2, chips_per_channel=2, blocks_per_chip=8, pages_per_block=16
        )
        sim = Simulator()
        ssd = Ssd(config, sim)
        dispatcher = IoDispatcher(sim, ssd, FifoPolicy())
        ftl = VssdFtl(0, ssd)
        ftl.adopt_blocks(ssd.allocate_channels(0, [0, 1]))
        dispatcher.register_vssd(0, ftl)
        return config, sim, dispatcher

    def test_replays_at_recorded_times(self, msr_file):
        config, sim, dispatcher = self._stack()
        trace = load_msr_trace(msr_file, page_size=config.page_size)
        submitted = []
        dispatcher.add_completion_callback(submitted.append)
        driver = TraceReplayDriver(
            trace, 0, sim, dispatcher.submit, working_set_pages=400
        )
        driver.start()
        sim.run()
        assert driver.submitted == 3
        assert len(submitted) == 3
        # The last record arrives ~2.33 simulated seconds after the first.
        assert sim.now_seconds >= 2.3

    def test_time_scale_compresses(self, msr_file):
        config, sim, dispatcher = self._stack()
        trace = load_msr_trace(msr_file, page_size=config.page_size)
        driver = TraceReplayDriver(
            trace, 0, sim, dispatcher.submit, working_set_pages=400, time_scale=100.0
        )
        driver.start()
        sim.run()
        assert driver.submitted == 3
        assert sim.now_seconds < 1.0

    def test_loop_wraps_around(self, msr_file):
        config, sim, dispatcher = self._stack()
        trace = load_msr_trace(msr_file, page_size=config.page_size)
        driver = TraceReplayDriver(
            trace, 0, sim, dispatcher.submit, working_set_pages=400,
            time_scale=1000.0, loop=True,
        )
        driver.start()
        sim.run_until_seconds(0.2)
        driver.stop()
        assert driver.submitted > 3

    def test_addresses_wrapped_to_working_set(self, msr_file):
        config, sim, dispatcher = self._stack()
        trace = load_msr_trace(msr_file, page_size=config.page_size)
        lpns = []
        original_submit = dispatcher.submit
        driver = TraceReplayDriver(
            trace, 0, sim,
            lambda r: (lpns.append(r.lpn), original_submit(r)),
            working_set_pages=50,
        )
        driver.start()
        sim.run()
        assert all(lpn < 50 for lpn in lpns)

    def test_invalid_params_rejected(self, msr_file):
        trace = load_msr_trace(msr_file)
        with pytest.raises(ValueError):
            TraceReplayDriver(trace, 0, Simulator(), lambda r: None, 100, time_scale=0)
        with pytest.raises(ValueError):
            TraceReplayDriver(trace, 0, Simulator(), lambda r: None, 0)
