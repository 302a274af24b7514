"""float-time-equality: never compare float timestamps with == / !=.

Simulation time is a float accumulated through arithmetic
(``now + delay_us``, unit conversions), so two "equal" timestamps can
differ in the last ulp and ``==`` silently misfires.  Ordering
comparisons (<, <=) and explicit tolerances are the correct forms.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register
from repro.analysis.rules.units import unit_of_expr

#: Unit suffixes that denote a time quantity.
_TIME_SUFFIXES = frozenset({"_us", "_ms", "_ns", "_s"})

#: Bare identifiers that conventionally hold a timestamp in this codebase.
_TIME_NAMES = frozenset({"now", "time", "timestamp", "deadline", "time_point"})


def _terminal_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_time_expr(node: ast.AST) -> bool:
    """Whether ``node`` looks like a (float) time expression."""
    unit = unit_of_expr(node)
    if unit in _TIME_SUFFIXES:
        return True
    name = _terminal_name(node)
    if name is None:
        return False
    return name in _TIME_NAMES or name.endswith("_time") or name.startswith("time_")


@register
class FloatTimeEqualityRule(Rule):
    name = "float-time-equality"
    description = "no ==/!= between float timestamp expressions"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.is_core:
            return
        for node in module.nodes(ast.Compare):
            assert isinstance(node, ast.Compare)
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_time_expr(left) or _is_time_expr(right):
                    yield self.finding(
                        module,
                        node.lineno,
                        node.col_offset + 1,
                        "==/!= on a float timestamp; accumulated float time "
                        "differs in the last ulp — compare with <=/>= bounds "
                        "or an explicit tolerance",
                    )
                    break
