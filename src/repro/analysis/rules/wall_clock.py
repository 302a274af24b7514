"""sim-wall-clock: the deterministic core must not read the host clock.

Simulation time is ``Simulator.now`` (microseconds).  A ``time.time()``
or ``datetime.now()`` inside ``sim``/``ssd``/``virt``/... leaks the
host's wall clock into results, silently breaking the serial/parallel
byte-equality contract.  Host-facing packages (``cli``, ``harness``,
``parallel``) report wall time by design and are exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, register

#: Canonical dotted names that read the host clock.
_BANNED_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class SimWallClockRule(Rule):
    name = "sim-wall-clock"
    description = (
        "no host wall-clock reads (time.time, perf_counter, datetime.now, ...) "
        "inside the deterministic core"
    )
    severity = Severity.ERROR

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.is_core:
            return
        for node in module.nodes(ast.Call):
            assert isinstance(node, ast.Call)
            target = module.resolve(node.func)
            if target in _BANNED_CALLS:
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset + 1,
                    f"{target}() reads the host clock inside the deterministic "
                    "core; use the simulator clock (Simulator.now) instead",
                )
