"""unordered-iteration: set iteration order must never reach sim state.

``set``/``frozenset`` iteration order depends on insertion history and
(for strings) the per-process hash seed, so a ``for`` loop over a set
that schedules events or emits telemetry produces run-to-run divergence
that no seed pins down.  Iterating a set is flagged in the core unless
the loop is wrapped in ``sorted(...)``.  Order-insensitive reductions
(``len``/``sum``/``min``/``max``/``any``/``all``) are fine.

``d.keys()`` (and bare dict iteration) is insertion-ordered in modern
Python, so it is only reported — as a warning — when written explicitly
as ``.keys()``, as a nudge to either drop the call or sort when the
order feeds the event heap or telemetry.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, register


def _is_set_expr(node: ast.AST, set_vars: Set[str]) -> bool:
    """Whether ``node`` is statically known to evaluate to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in {"set", "frozenset"}:
            return True
    if isinstance(node, ast.Name) and node.id in set_vars:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra (| & - ^) preserves set-ness if either side is a set
        return _is_set_expr(node.left, set_vars) or _is_set_expr(node.right, set_vars)
    return False


class _SetTracker(ast.NodeVisitor):
    """One-pass, name-level tracking of variables assigned set values.

    Deliberately simple: a name counts as a set from its assignment
    onward anywhere in the module.  False negatives are possible through
    attributes and containers; the rule aims at the common local pattern
    ``pending = set(); ... for x in pending:``.
    """

    def __init__(self) -> None:
        self.set_vars: Set[str] = set()

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value, self.set_vars):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    self.set_vars.add(tgt.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        ann = ast.unparse(node.annotation) if node.annotation else ""
        if isinstance(node.target, ast.Name) and (
            ann.startswith(("set", "Set", "frozenset", "FrozenSet", "typing.Set"))
            or (node.value is not None and _is_set_expr(node.value, self.set_vars))
        ):
            self.set_vars.add(node.target.id)
        self.generic_visit(node)


@register
class UnorderedIterationRule(Rule):
    name = "unordered-iteration"
    description = (
        "no iteration over set/frozenset (or explicit .keys()) where order "
        "can feed the event heap or telemetry; wrap in sorted()"
    )
    severity = Severity.ERROR

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.is_core:
            return
        tracker = _SetTracker()
        tracker.visit(module.tree)
        for node in module.walk():
            iters: List[ast.expr] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for iter_expr in iters:
                finding = self._check_iter(module, iter_expr, tracker.set_vars)
                if finding is not None:
                    yield finding

    def _check_iter(
        self,
        module: ModuleContext,
        iter_expr: ast.expr,
        set_vars: Set[str],
    ) -> Optional[Finding]:
        line, col = iter_expr.lineno, iter_expr.col_offset + 1
        if _is_set_expr(iter_expr, set_vars):
            return self.finding(
                module,
                line,
                col,
                "iterating a set: order depends on hashing and insertion "
                "history; wrap in sorted() before it can reach the event "
                "heap or telemetry",
            )
        if (
            isinstance(iter_expr, ast.Call)
            and isinstance(iter_expr.func, ast.Attribute)
            and iter_expr.func.attr == "keys"
            and not iter_expr.args
        ):
            return Finding(
                rule=self.name,
                severity=Severity.WARNING,
                path=module.path,
                line=line,
                col=col,
                message=(
                    "explicit .keys() iteration: iterate the mapping directly "
                    "(insertion order) or sorted(...) if order is load-bearing"
                ),
                source_line=module.line_text(line),
            )
        return None
