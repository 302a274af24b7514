"""parallel-shared-mutation: fork-state races in worker-reachable code.

``ParallelRunner`` runs cells in forked pool workers and merges results
through two sanctioned paths only: the ``CellOutcome`` payload (telemetry,
result, profile snapshot) and explicit ``absorb``/``merge`` functions in
the parent.  Any *other* module-level mutable container written by code
reachable from a registered worker entry point is a fork-state trap:
the write lands in the child's copy-on-write heap and silently vanishes
— or, under a future thread-based runner, races.

The rule builds the call graph, takes the worker entry points from the
``RUNNERS`` registry in ``repro.parallel.worker`` (plus ``run_cell``),
computes the reachable function set, and flags container mutations
(subscript stores, ``append``/``update``/``setdefault``/... calls,
``global`` rebinding) of module-level dict/list/set globals from inside
that set.  Writes inside functions named ``absorb*``/``merge*`` and the
profiler's own module are the sanctioned merge paths and are exempt.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.callgraph import FunctionInfo, ProjectContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import ProjectRule, register

#: The module whose ``RUNNERS`` dict names the worker entry points.
_WORKER_MODULE = "repro.parallel.worker"

#: Modules whose globals are sanctioned cross-process merge machinery
#: (the profiler is absorbed into the parent via CellOutcome.profile).
_SANCTIONED_MODULES = frozenset({"repro.profiling.profiler"})

#: Mutating container methods.  Readers (``get``, ``count``, ``index``)
#: are deliberately absent.
_MUTATORS = frozenset(
    {
        "append",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "extend",
        "insert",
        "remove",
        "discard",
        "sort",
        "reverse",
    }
)

#: Constructors whose module-level result is a mutable container.
_CONTAINER_CALLS = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
)


def _mutable_globals(project: ProjectContext) -> Dict[str, Dict[str, int]]:
    """module name -> {global name: definition line} for mutable containers."""
    out: Dict[str, Dict[str, int]] = {}
    for ctx in project.modules:
        if ctx.module is None:
            continue
        found: Dict[str, int] = {}
        for stmt in ctx.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None:
                continue
            mutable = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in _CONTAINER_CALLS
            )
            if not mutable:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id != "__all__":
                    found[target.id] = stmt.lineno
        if found:
            out[ctx.module] = found
    return out


def _entry_points(project: ProjectContext) -> List[str]:
    """Worker entry qualnames from the RUNNERS registry, plus run_cell."""
    entries: Set[str] = set()
    ctx = project.by_module.get(_WORKER_MODULE)
    if ctx is not None:
        for stmt in ctx.tree.body:
            if not (
                isinstance(stmt, (ast.Assign, ast.AnnAssign))
                and isinstance(getattr(stmt, "value", None), ast.Dict)
            ):
                continue
            names = (
                [t.id for t in stmt.targets if isinstance(t, ast.Name)]
                if isinstance(stmt, ast.Assign)
                else (
                    [stmt.target.id]
                    if isinstance(stmt.target, ast.Name)
                    else []
                )
            )
            if "RUNNERS" not in names:
                continue
            value = stmt.value
            assert isinstance(value, ast.Dict)
            for entry in value.values:
                if isinstance(entry, ast.Name):
                    qual = f"{_WORKER_MODULE}.{entry.id}"
                    if qual in project.functions:
                        entries.add(qual)
        run_cell = f"{_WORKER_MODULE}.run_cell"
        if run_cell in project.functions:
            entries.add(run_cell)
    return sorted(entries)


def _locally_shadowed(fn: FunctionInfo, name: str) -> bool:
    """Whether ``name`` is rebound as a local inside ``fn`` (and not
    declared ``global``)."""
    declared_global = any(
        isinstance(n, ast.Global) and name in n.names
        for n in ast.walk(fn.node)
    )
    if declared_global:
        return False
    for node in ast.walk(fn.node):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return True
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if arg.arg == name:
                    return True
    return False


@register
class SharedMutationRule(ProjectRule):
    name = "parallel-shared-mutation"
    description = (
        "module-level mutable state must not be written by code reachable "
        "from ParallelRunner worker entry points except via sanctioned "
        "merge paths (CellOutcome payloads, absorb/merge functions)"
    )
    severity = Severity.ERROR

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        entries = _entry_points(project)
        if not entries:
            return
        reachable = project.reachable(entries)
        globals_by_module = _mutable_globals(project)
        for qualname in sorted(reachable):
            fn = project.functions[qualname]
            if fn.name.startswith(("absorb", "merge", "_merge")):
                continue  # sanctioned merge path
            if fn.module in _SANCTIONED_MODULES:
                continue
            module_globals = globals_by_module.get(fn.module, {})
            if not module_globals:
                continue
            yield from self._writes_in(fn, module_globals)

    def _writes_in(
        self, fn: FunctionInfo, module_globals: Dict[str, int]
    ) -> Iterator[Finding]:
        shadow_cache: Dict[str, bool] = {}

        def is_global(name: str) -> bool:
            if name not in module_globals:
                return False
            if name not in shadow_cache:
                shadow_cache[name] = not _locally_shadowed(fn, name)
            return shadow_cache[name]

        for node in ast.walk(fn.node):
            hit: Optional[Tuple[int, int, str, str]] = None
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and is_global(target.value.id)
                    ):
                        hit = (
                            target.lineno,
                            target.col_offset + 1,
                            target.value.id,
                            "subscript store",
                        )
                    elif isinstance(target, ast.Name) and is_global(target.id):
                        # plain rebinding needs a ``global`` declaration to
                        # reach module scope; _locally_shadowed already
                        # filtered the local case.
                        hit = (
                            target.lineno,
                            target.col_offset + 1,
                            target.id,
                            "rebinding",
                        )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and is_global(target.value.id)
                    ):
                        hit = (
                            target.lineno,
                            target.col_offset + 1,
                            target.value.id,
                            "del",
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
                and isinstance(node.func.value, ast.Name)
                and is_global(node.func.value.id)
            ):
                hit = (
                    node.lineno,
                    node.col_offset + 1,
                    node.func.value.id,
                    f".{node.func.attr}()",
                )
            if hit is not None:
                line, col, name, how = hit
                yield self.finding(
                    fn.context,
                    line,
                    col,
                    f"{how} on module-level mutable '{name}' inside "
                    f"{fn.qualname}, which is reachable from a ParallelRunner "
                    "worker entry point; the write dies with the forked child "
                    "— return it through CellOutcome or an absorb/merge path",
                )
