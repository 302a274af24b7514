"""A finished cell frees its simulator by reference counting alone.

A built experiment is cyclic (pending engine events, dispatcher
completion callbacks, block views, harvest hooks).  The cell runner
closes it in a ``finally``, so with the garbage collector disabled the
whole stack must already be gone when ``run_cell`` returns, and a
collection afterwards must find no ``repro`` object to free.
"""

import gc
import weakref
from pathlib import Path

import pytest

import repro.harness.pretrained as pretrained
from repro.config import SSDConfig
from repro.harness.experiment import Experiment, plans_for_pair
from repro.parallel import ExperimentCell, run_cell
from repro.parallel import worker
from repro.rl.nets import PolicyValueNet
from repro.sim.engine import Simulator

#: The committed canonical policy net: with it the 8 s fleetio cell ends
#: with a harvest region attached, the case whose hook closes a cycle.
POLICY_FIXTURE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "perf" / "fixtures" / "pretrained_canonical.npz"
)

CELLS = {
    "hardware": ExperimentCell("ycsb+terasort", ("ycsb", "terasort"), "hardware", 0, 1.0, 0.25),
    "software": ExperimentCell("ycsb+terasort", ("ycsb", "terasort"), "software", 0, 1.0, 0.25),
    "adaptive": ExperimentCell("ycsb+terasort", ("ycsb", "terasort"), "adaptive", 0, 1.0, 0.25),
    "fleetio": ExperimentCell("ycsb+terasort", ("ycsb", "terasort"), "fleetio", 0, 8.0, 2.0),
}


@pytest.fixture
def gc_off():
    """Collect once, then keep the collector off for the test body."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture
def captured(monkeypatch):
    """Weakrefs to each cell's stack, taken as the cell runner builds it,
    and the harvest regions attached when its experiment closes."""
    refs: list = []
    attached: list = []
    real_for = worker.experiment_for
    real_close = Experiment.close

    def experiment_for(cell):
        experiment = real_for(cell).build()
        virt = experiment.virt
        ftl = next(iter(virt.vssds.values())).ftl
        for component in (virt.sim, virt.ssd, virt.ssd.store, ftl, virt.dispatcher):
            refs.append(weakref.ref(component))
        return experiment

    def close(self):
        if self.virt is not None:
            attached.append(sum(len(v.harvested_gsbs) for v in self.virt.vssds.values()))
        real_close(self)

    monkeypatch.setattr(worker, "experiment_for", experiment_for)
    monkeypatch.setattr(Experiment, "close", close)
    return refs, attached


def _repro_garbage() -> list:
    """Type names of the ``repro`` objects a full collection frees now."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = [
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
            if type(obj).__module__.startswith("repro.")
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return found


@pytest.mark.parametrize("policy", sorted(CELLS))
def test_finished_cell_leaves_no_cyclic_garbage(policy, gc_off, captured, monkeypatch):
    refs, attached = captured
    if policy == "fleetio":
        net = PolicyValueNet.load(str(POLICY_FIXTURE))
        monkeypatch.setattr(pretrained, "get_pretrained_net", lambda *a, **k: net)
        monkeypatch.setattr(pretrained, "get_classifier", lambda *a, **k: None)
    outcome = run_cell(CELLS[policy], profile=False)
    assert outcome.ok, outcome.error
    assert len(refs) == 5
    alive = [type(ref()).__name__ for ref in refs if ref() is not None]
    assert alive == [], f"still referenced after run_cell returned: {alive}"
    assert _repro_garbage() == []
    if policy == "fleetio":
        assert attached and attached[0] > 0, "no harvest region attached at close"


def test_cell_whose_run_raises_is_still_closed(gc_off, captured, monkeypatch):
    refs, _attached = captured

    def broken_run_until(self, time_us):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(Simulator, "run_until", broken_run_until)
    outcome = run_cell(CELLS["hardware"], profile=False)
    assert not outcome.ok
    assert outcome.error["message"] == "engine fault"
    assert [ref() for ref in refs] == [None] * 5
    assert _repro_garbage() == []


@pytest.fixture
def finished(small_config: SSDConfig) -> Experiment:
    experiment = Experiment(plans_for_pair("ycsb", "terasort"), "hardware", ssd_config=small_config)
    experiment.run(0.2, 0.05)
    return experiment


def test_close_twice_is_a_no_op(finished):
    finished.close()
    finished.close()
    assert finished.virt.sim.pending_events == 0


def test_run_after_close_raises(finished):
    finished.close()
    with pytest.raises(RuntimeError, match="closed"):
        finished.run(0.2, 0.05)
    # Closing an experiment that was never built also ends its lifecycle.
    unbuilt = Experiment(plans_for_pair("ycsb", "terasort"), "hardware")
    unbuilt.close()
    with pytest.raises(RuntimeError, match="closed"):
        unbuilt.run(0.2, 0.05)


def test_held_event_handle_cancels_as_no_op_after_close(finished):
    sim = finished.virt.sim
    fired = []
    handle = sim.schedule(1_000_000.0, fired.append, "late")
    finished.close()
    handle.cancel()
    assert sim.pending_events == 0
    assert handle.callback is None and handle.sim is None
    assert fired == []
