"""digest-contract: telemetry state is written only through its owners.

The end-of-run telemetry digest is the repo's single source of truth for
"byte-identical".  Its inputs — :class:`WindowStats` rows and the
``window_history`` each monitor accumulates — are covered by that digest
only when every write flows through the owning accessors:
``VssdMonitor.snapshot_window`` (and the fast/vector envs, which build
the same rows analytically and are verified bit-exact against the
scalar path).

A ``WindowStats(...)`` constructed anywhere else, or a
``window_history`` mutated from outside the monitor, changes telemetry
without crossing a digest-covered accessor — the digest then certifies
bytes nobody audited.  Reads are always fine.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.callgraph import ProjectContext
from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import ProjectRule, register

#: The telemetry row type.
_WINDOWSTATS = "repro.core.monitor.WindowStats"

#: Modules allowed to construct WindowStats: the monitor itself plus the
#: analytic envs whose rows are gated bit-exact against it.
_ROW_BUILDERS = frozenset(
    {"repro.core.monitor", "repro.core.fast_env", "repro.core.vector_env"}
)

#: The only module allowed to mutate ``window_history``.
_HISTORY_OWNER = frozenset({"repro.core.monitor"})

_MUTATORS = frozenset(
    {"append", "extend", "insert", "pop", "clear", "remove", "sort", "reverse"}
)


@register
class DigestContractRule(ProjectRule):
    name = "digest-contract"
    description = (
        "WindowStats rows and window_history may only be written by their "
        "digest-covered owners (monitor + bit-exact analytic envs)"
    )
    severity = Severity.ERROR

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for ctx in project.modules:
            mod = ctx.module
            if mod is None:
                continue
            for node in ctx.nodes(ast.Call):
                assert isinstance(node, ast.Call)
                yield from self._check_call(project, ctx, mod, node)
            for node in ctx.nodes(ast.Assign, ast.AugAssign):
                yield from self._check_store(ctx, mod, node)

    def _check_call(
        self,
        project: ProjectContext,
        ctx: ModuleContext,
        mod: str,
        node: ast.Call,
    ) -> Iterator[Finding]:
        # WindowStats(...) constructed outside the sanctioned builders.
        target: Optional[str] = None
        if isinstance(node.func, ast.Name):
            target = project.resolve_name(ctx, node.func.id)
        elif isinstance(node.func, ast.Attribute):
            target = project._resolve_dotted_expr(ctx, node.func)
        if target is not None:
            target = project.canonical(target)
        if target == _WINDOWSTATS and mod not in _ROW_BUILDERS:
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset + 1,
                "WindowStats constructed outside the digest-covered row "
                "builders (monitor / fast_env / vector_env); telemetry rows "
                "built here bypass the bit-exactness gate",
            )
            return
        # window_history.append(...) etc. outside the monitor.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "window_history"
            and mod not in _HISTORY_OWNER
        ):
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset + 1,
                f"window_history.{node.func.attr}() outside the monitor; the "
                "accumulator feeds the telemetry digest and is only auditable "
                "through VssdMonitor.snapshot_window",
            )

    def _check_store(
        self, ctx: ModuleContext, mod: str, node: ast.AST
    ) -> Iterator[Finding]:
        # `x.window_history = ...` or `x.window_history[i] = ...` outside
        # the monitor rebinds/overwrites the digest-covered accumulator.
        if mod in _HISTORY_OWNER:
            return
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]  # type: ignore[attr-defined]
        )
        for target in targets:
            inner = target
            if isinstance(inner, ast.Subscript):
                inner = inner.value
            if isinstance(inner, ast.Attribute) and inner.attr == "window_history":
                yield self.finding(
                    ctx,
                    target.lineno,
                    target.col_offset + 1,
                    "store to window_history outside the monitor; the "
                    "accumulator feeds the telemetry digest and may only be "
                    "written by VssdMonitor",
                )
