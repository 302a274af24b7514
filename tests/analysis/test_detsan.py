"""Determinism sanitizer: trace plumbing and divergence localization.

The headline property detsan exists for: when nondeterminism is
*injected* into one of two otherwise-identical runs, ``compare`` must
name the first divergent (subsystem, window) — not just "digest
mismatch" at the end.
"""

import pytest

from repro.analysis.detsan import (
    DetsanRecorder,
    DetsanTrace,
    compare,
    detsan_enabled,
    write_traces,
)
from repro.config import RLConfig, SSDConfig
from repro.harness import Experiment, VssdPlan

FAST = SSDConfig(
    num_channels=4,
    chips_per_channel=2,
    blocks_per_chip=16,
    pages_per_block=32,
    min_superblock_blocks=4,
)


def _experiment(seed=7):
    rl = RLConfig(decision_interval_s=0.5, batch_size=8)
    plans = [VssdPlan("ycsb"), VssdPlan("terasort")]
    return Experiment(plans, "ssdkeeper", ssd_config=FAST, rl_config=rl, seed=seed)


def _record(recorder, seed=7):
    exp = _experiment(seed=seed)
    exp.run(2.0, 0.5, detsan=recorder)
    return recorder.trace


class _PerturbingRecorder(DetsanRecorder):
    """Injects a perturbation just before checkpointing one window."""

    def __init__(self, target_window, perturb):
        super().__init__(label="perturbed")
        self._target = target_window
        self._perturb = perturb

    def checkpoint(self, window, experiment):
        if window == self._target:
            self._perturb(experiment)
        super().checkpoint(window, experiment)


# ----------------------------------------------------------------------
# trace container
# ----------------------------------------------------------------------
class TestTrace:
    def test_round_trip(self):
        trace = DetsanTrace(label="cell/a")
        trace.add(0, 500000.0, "engine", "aaaa")
        trace.add(0, 500000.0, "rng:workload", "bbbb")
        trace.add(1, 1000000.0, "engine", "cccc")
        again = DetsanTrace.from_bytes(trace.to_bytes())
        assert again.label == "cell/a"
        assert again.checkpoints == trace.checkpoints

    def test_version_gate(self):
        bad = b'{"version": 99, "label": "", "checkpoints": []}'
        with pytest.raises(ValueError, match="version"):
            DetsanTrace.from_bytes(bad)

    def test_windows_and_sections(self):
        trace = DetsanTrace()
        trace.add(0, 1.0, "engine", "x")
        trace.add(0, 1.0, "rng:a", "y")
        trace.add(1, 2.0, "engine", "z")
        assert trace.windows() == [0, 1]
        assert set(trace.sections_at(0)) == {"engine", "rng:a"}

    def test_save_load(self, tmp_path):
        trace = DetsanTrace(label="t")
        trace.add(0, 1.0, "engine", "x")
        path = str(tmp_path / "t.detsan.json")
        trace.save(path)
        assert DetsanTrace.load(path).checkpoints == trace.checkpoints

    def test_write_traces_sanitizes_cell_ids(self, tmp_path):
        paths = write_traces({"a+b/pol/s0": b"{}"}, str(tmp_path))
        assert paths == [str(tmp_path / "a+b_pol_s0.detsan.json")]
        assert (tmp_path / "a+b_pol_s0.detsan.json").read_bytes() == b"{}"


# ----------------------------------------------------------------------
# compare semantics
# ----------------------------------------------------------------------
class TestCompare:
    def _pair(self):
        a, b = DetsanTrace(label="a"), DetsanTrace(label="b")
        for trace in (a, b):
            trace.add(0, 1.0, "engine", "e0")
            trace.add(0, 1.0, "rng:w", "r0")
            trace.add(1, 2.0, "engine", "e1")
            trace.add(1, 2.0, "rng:w", "r1")
        return a, b

    def test_identical_traces(self):
        a, b = self._pair()
        assert compare(a, b) is None

    def test_first_divergent_window_wins(self):
        a, b = self._pair()
        b.checkpoints[2] = type(b.checkpoints[2])(1, 2.0, "engine", "DIFF")
        divergence = compare(a, b)
        assert divergence.window == 1
        assert divergence.sections == ("engine",)
        assert "window 1" in divergence.render()

    def test_multiple_sections_reported_sorted(self):
        a, b = self._pair()
        b.checkpoints[0] = type(b.checkpoints[0])(0, 1.0, "engine", "X")
        b.checkpoints[1] = type(b.checkpoints[1])(0, 1.0, "rng:w", "Y")
        assert compare(a, b).sections == ("engine", "rng:w")

    def test_truncated_trace_is_a_divergence(self):
        a, b = self._pair()
        b.checkpoints = b.checkpoints[:2]  # b ends after window 0
        divergence = compare(a, b)
        assert divergence is not None
        assert divergence.window == 1

    def test_one_sided_section_is_a_divergence(self):
        a, b = self._pair()
        b.add(1, 2.0, "ftl:x", "f")  # extra section on one side only
        assert compare(a, b).sections == ("ftl:x",)


# ----------------------------------------------------------------------
# recording + injected-nondeterminism localization
# ----------------------------------------------------------------------
class TestLocalization:
    def test_identical_runs_have_identical_traces(self):
        a = _record(DetsanRecorder(label="a"))
        b = _record(DetsanRecorder(label="b"))
        assert len(a.windows()) >= 3
        assert {"engine"} <= set(a.sections_at(0))
        assert any(s.startswith("rng:") for s in a.sections_at(0))
        assert any(s.startswith("ftl:") for s in a.sections_at(0))
        assert any(s.startswith("telemetry:") for s in a.sections_at(0))
        assert compare(a, b) is None

    def test_perturbed_rng_stream_is_localized(self):
        drawn = {}

        def draw_from_stream(experiment):
            name = sorted(experiment.streams.detsan_states())[0]
            drawn["name"] = name
            experiment.streams.get(name).random()  # one stolen draw

        clean = _record(DetsanRecorder(label="clean"))
        dirty = _record(_PerturbingRecorder(2, draw_from_stream))
        divergence = compare(clean, dirty)
        assert divergence is not None
        assert divergence.window == 2
        assert divergence.sections == (f"rng:{drawn['name']}",)

    def test_injected_event_is_localized_to_the_engine(self):
        def schedule_phantom(experiment):
            # Far past the end of the run: never fires, but sits in the
            # pending heap from window 1 on.
            experiment.virt.sim.schedule(1e9, lambda: None)

        clean = _record(DetsanRecorder(label="clean"))
        dirty = _record(_PerturbingRecorder(1, schedule_phantom))
        divergence = compare(clean, dirty)
        assert divergence is not None
        assert divergence.window == 1
        assert divergence.sections == ("engine",)

    def test_different_seeds_diverge_immediately(self):
        a = _record(DetsanRecorder(label="s7"), seed=7)
        b = _record(DetsanRecorder(label="s8"), seed=8)
        divergence = compare(a, b)
        assert divergence is not None
        assert divergence.window == 0


# ----------------------------------------------------------------------
# env-var gate
# ----------------------------------------------------------------------
class TestEnabledFlag:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_DETSAN", raising=False)
        assert not detsan_enabled()
        monkeypatch.setenv("REPRO_DETSAN", "0")
        assert not detsan_enabled()

    @pytest.mark.parametrize("value", ["off", "false", "no", "", " OFF "])
    def test_off_spellings_are_off(self, monkeypatch, value):
        """``REPRO_DETSAN=off`` used to read as "set, therefore on"."""
        monkeypatch.setenv("REPRO_DETSAN", value)
        assert not detsan_enabled()

    def test_on_when_set(self, monkeypatch):
        for value in ("1", "on", "true", "Yes"):
            monkeypatch.setenv("REPRO_DETSAN", value)
            assert detsan_enabled(), value

    def test_typo_raises_naming_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_DETSAN", "ture")
        with pytest.raises(ValueError, match="REPRO_DETSAN='ture'.*on.*off"):
            detsan_enabled()

    def test_experiment_records_nothing_when_off(self, monkeypatch):
        """``Experiment.run`` records when handed a recorder and never
        reads the variable itself — the cell runner is its one reader —
        so a value the parser rejects fails a cell, not a direct run."""
        from repro.parallel import ExperimentCell, run_cell

        monkeypatch.setenv("REPRO_DETSAN", "ture")
        _experiment().run(1.0, 0.5)
        cell = ExperimentCell("s", ("ycsb",), "hardware", 0, 0.5, 0.1, num_channels=4)
        outcome = run_cell(cell, profile=False)
        assert not outcome.ok and "REPRO_DETSAN" in outcome.error["message"]
