"""Span tracer for the per-layer numbers: wraps public callables from outside.

The tracer lives with the benchmark, not in ``src/``: it replaces each
callable named in :data:`LAYER_BOUNDARIES` with a timing wrapper *at class
(or module) level, before anything is constructed*, so bound methods that
the simulator captures at build time (completion callbacks, ``select``
hooks) are already the wrapped ones.

A stack of open spans gives self time: each span's duration is added to
its parent's "children" accumulator, and ``self = duration - children``.
Spans are aggregated per name in memory (a cell fires ~1M spans per
round, so individual records are not kept) and written with the result.

The wrappers cost 10-40 % wall, so end-to-end numbers are never taken
from a traced run; ``trace.overhead_frac`` reports the cost.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from typing import Callable, Dict, List, Tuple

#: ``(span name, module, dotted attribute)`` — the one table of layer
#: boundaries.  Several rows may feed one span name (every scheduling
#: policy's ``select`` is ``sched.policy.select``).  Public names only.
LAYER_BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("sim.engine.run_until", "repro.sim.engine", "Simulator.run_until"),
    ("sched.dispatcher.submit", "repro.sched.dispatcher", "IoDispatcher.submit"),
    ("sched.policy.select", "repro.sched.policies", "FifoPolicy.select"),
    ("sched.policy.select", "repro.sched.policies", "PriorityPolicy.select"),
    ("sched.policy.select", "repro.sched.policies", "TokenBucketStridePolicy.select"),
    ("workloads.model.sample_request", "repro.workloads.model", "WorkloadModel.sample_request"),
    ("workloads.model.interarrival_us", "repro.workloads.model", "WorkloadModel.interarrival_us"),
    ("workloads.driver.on_complete", "repro.workloads.drivers", "OpenLoopDriver.on_complete"),
    ("workloads.driver.on_complete", "repro.workloads.drivers", "ClosedLoopDriver.on_complete"),
    ("ssd.ftl.read_span", "repro.ssd.ftl", "VssdFtl.read_span"),
    ("ssd.ftl.write_span", "repro.ssd.ftl", "VssdFtl.write_span"),
    ("ssd.ftl.run_gc", "repro.ssd.ftl", "VssdFtl.run_gc"),
    ("ssd.ftl.recycle_region", "repro.ssd.ftl", "VssdFtl.recycle_region"),
    ("ssd.ftl.warm_fill", "repro.ssd.ftl", "VssdFtl.warm_fill"),
    ("core.monitor.on_complete", "repro.core.monitor", "VssdMonitor.on_complete"),
    ("core.monitor.snapshot_window", "repro.core.monitor", "VssdMonitor.snapshot_window"),
    ("core.controller.run_window", "repro.core.controller", "FleetIoController.run_window"),
    ("core.fast_env.step", "repro.core.fast_env", "FastFleetEnv.step"),
    ("core.vector_env.step", "repro.core.vector_env", "VectorFastFleetEnv.step"),
    ("core.pretrain.pretrain", "repro.core.pretrain", "pretrain"),
    ("virt.admission.process_batch", "repro.virt.admission", "AdmissionController.process_batch"),
    ("virt.gsb_manager.harvest", "repro.virt.gsb_manager", "GsbManager.harvest"),
    ("virt.gsb_manager.make_harvestable", "repro.virt.gsb_manager", "GsbManager.make_harvestable"),
    ("rl.nets.forward_batch", "repro.rl.nets", "PolicyValueNet.forward_batch"),
    ("rl.nets.backward", "repro.rl.nets", "PolicyValueNet.backward"),
    ("rl.ppo.update", "repro.rl.ppo", "PpoTrainer.update"),
    ("rl.buffer.get", "repro.rl.buffer", "RolloutBuffer.get"),
    ("harness.experiment.build", "repro.harness.experiment", "Experiment.build"),
    ("harness.experiment.run", "repro.harness.experiment", "Experiment.run"),
    ("harness.snapshots.capture_experiment", "repro.harness.snapshots", "capture_experiment"),
    ("harness.snapshots.restore_experiment", "repro.harness.snapshots", "restore_experiment"),
    ("harness.report.results_csv_bytes", "repro.harness.report", "results_csv_bytes"),
    ("harness.telemetry.windows_csv_bytes", "repro.harness.telemetry", "windows_csv_bytes"),
    ("parallel.runner.run", "repro.parallel.runner", "ParallelRunner.run"),
    ("parallel.worker.run_cell", "repro.parallel.worker", "run_cell"),
    ("fleet.runner.run", "repro.fleet.runner", "FleetShardRunner.run"),
    ("fleet.arena.publish", "repro.fleet.arena", "SharedArena.__init__"),
    ("fleet.ring.drain", "repro.fleet.ring", "TelemetryRing.drain"),
)

#: Every span name, table order, once.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(row[0] for row in LAYER_BOUNDARIES))

#: The benchmark's own span around one whole round (the driver wraps its
#: round function with it); its self time is what no layer accounts for.
ROOT_SPAN = "round"


class Tracer:
    """Per-name span aggregates with self time from a stack of open spans."""

    def __init__(self) -> None:
        #: name -> [calls, total_ns, self_ns]
        self.stats: Dict[str, List[int]] = {}
        #: Span names whose boundary no longer exists in the program.
        self.missing: List[str] = []
        self.active = False
        self._stack: List[int] = []  # children-ns accumulator per open span

    def wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return traced

    def install(self) -> None:
        """Wrap every boundary in :data:`LAYER_BOUNDARIES`.

        A boundary that no longer exists is recorded in :attr:`missing`
        (its metrics read ``null``) instead of raising, so a refactor
        that deletes a layer is reported by the benchmark, not blocked.
        """
        found = set()
        for name, module_name, dotted in LAYER_BOUNDARIES:
            try:
                owner = importlib.import_module(module_name)
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            found.add(name)
            if isinstance(owner, type):
                # Patch the class that defines the method, so a method
                # inherited from a (private) base is wrapped where it lives.
                owner = next(k for k in owner.__mro__ if attr in vars(k))
                original = vars(owner)[attr]
                if getattr(original, "__wrapped__", None) is not None:
                    continue  # shared base method, already wrapped via a sibling row
                setattr(owner, attr, self.wrap(name, original))
            else:
                wrapped = self.wrap(name, original)
                # ``from module import fn`` copies made before install
                # would bypass the wrapper: rebind every one of them.
                for module in list(sys.modules.values()):
                    if getattr(module, "__dict__", {}).get(attr) is original:
                        setattr(module, attr, wrapped)
        self.missing = [name for name in SPAN_NAMES if name not in found]
        # Fork children (the fleet's pool workers) inherit the wrappers
        # but their aggregates never come back: make them pass-through.
        os.register_at_fork(after_in_child=self._deactivate)

    def _deactivate(self) -> None:
        self.active = False
