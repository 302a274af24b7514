"""hotpath-alloc: allocation sites in loops reachable from the hot path.

PRs 4 and 7 bought their speedups largely by deleting per-event
allocations (tuple heaps, free-list pools, structure-of-arrays columns).
This rule keeps the ratchet from slipping: starting from the event-loop
and FTL hot roots, it walks the call graph and flags container
allocations (literals, comprehensions, ``dict()``/``list()``/``set()``
calls) that sit *inside a loop* of a reachable function.

Findings are warnings, not errors: an allocation can be the right call
(cold sub-branch, bounded size).  Each kept site carries a
suppress-with-reason marker, which doubles as the written-down worklist
for structure-of-arrays round three.

A root that names no function is an *error*: the walk would silently
skip it, and the ratchet would guard less than :data:`HOT_ROOTS` says.
Only roots whose module is part of the linted program are checked, so
linting a sub-tree stays quiet.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from typing import Iterator, List, Set

from repro.analysis.callgraph import ProjectContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import ProjectRule, register

#: Event-loop / FTL / env hot roots.  Callbacks fired by the event
#: engine are dynamic, so the roots name the hot *leaves* directly
#: rather than relying on edges through ``Event.callback``.
HOT_ROOTS = (
    "repro.sim.engine.Simulator.run_until",
    "repro.sim.engine.Simulator.schedule",
    "repro.sim.engine.Event.cancel",
    "repro.sched.dispatcher.IoDispatcher.submit",
    "repro.sched.dispatcher.IoDispatcher._pump",
    "repro.sched.dispatcher.IoDispatcher._can_dispatch",
    "repro.sched.dispatcher.IoDispatcher._dispatch_inner",
    "repro.sched.dispatcher.IoDispatcher._complete",
    "repro.sched.policies.FifoPolicy.select",
    "repro.sched.policies.PriorityPolicy.select",
    "repro.sched.policies.TokenBucketStridePolicy.select",
    "repro.workloads.drivers.OpenLoopDriver._arrive",
    "repro.workloads.drivers.ClosedLoopDriver.on_complete",
    "repro.workloads.model.WorkloadModel.sample_request",
    "repro.workloads.model.WorkloadModel.interarrival_us",
    "repro.core.monitor.VssdMonitor.on_complete",
    "repro.ssd.ftl.VssdFtl.write_span",
    "repro.ssd.ftl.VssdFtl.read_span",
    "repro.core.fast_env.FastFleetEnv._simulate_window",
    "repro.core.vector_env.VectorFastFleetEnv._simulate_window",
)

_ALLOC_CALLS = frozenset({"dict", "list", "set"})


def _loop_spans(fn_node: ast.AST) -> List[tuple]:
    """(start, end) line spans of every for/while loop in the function."""
    spans = []
    for node in ast.walk(fn_node):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            spans.append((node.lineno, node.end_lineno or node.lineno))
    return spans


def _in_loop(node: ast.AST, spans: List[tuple]) -> bool:
    lineno = getattr(node, "lineno", None)
    if lineno is None:
        return False
    # Strictly below the header line: a `for x in [..]` iterable on the
    # header itself is evaluated once, not per iteration.
    return any(start < lineno <= end for start, end in spans)


@register
class HotpathAllocRule(ProjectRule):
    name = "hotpath-alloc"
    description = (
        "container allocations inside loops of functions reachable from "
        "the event-loop/FTL hot roots; suppressions are the SoA worklist"
    )
    severity = Severity.WARNING

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        yield from self._stale_roots(project)
        reachable = project.reachable(HOT_ROOTS)
        for qualname in sorted(reachable):
            fn = project.functions[qualname]
            spans = _loop_spans(fn.node)
            if not spans:
                continue
            seen_lines: Set[int] = set()
            for node in ast.walk(fn.node):
                what = self._allocation(node)
                if what is None or not _in_loop(node, spans):
                    continue
                if node.lineno in seen_lines:
                    continue  # one finding per line keeps reports readable
                seen_lines.add(node.lineno)
                yield self.finding(
                    fn.context,
                    node.lineno,
                    node.col_offset + 1,
                    f"{what} inside a loop of {fn.qualname}, which is "
                    "reachable from the event-loop/FTL hot path; hoist it, "
                    "reuse a preallocated buffer, or suppress with the SoA "
                    "worklist reason",
                )

    def _stale_roots(self, project: ProjectContext) -> Iterator[Finding]:
        """An error per root whose module is linted but defines no such function."""
        for root in HOT_ROOTS:
            if root in project.functions:
                continue
            module = root
            while module and module not in project.by_module:
                module = module.rpartition(".")[0]
            if not module:
                continue  # the root's module is not part of this lint run
            stale = self.finding(
                project.by_module[module],
                1,
                1,
                f"hot root {root} names no function in {module}; fix or "
                "drop the HOT_ROOTS entry (an unresolved root is skipped, "
                "so the rule guards less than it says)",
            )
            yield replace(stale, severity=Severity.ERROR)

    @staticmethod
    def _allocation(node: ast.AST) -> "str | None":
        if isinstance(node, ast.ListComp):
            return "list comprehension"
        if isinstance(node, ast.SetComp):
            return "set comprehension"
        if isinstance(node, ast.DictComp):
            return "dict comprehension"
        if isinstance(node, ast.List) and node.elts:
            return "list literal"
        if isinstance(node, ast.Set):
            return "set literal"
        if isinstance(node, ast.Dict) and node.keys:
            return "dict literal"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ALLOC_CALLS
        ):
            return f"{node.func.id}() call"
        return None
