"""Rule registry: rules self-register at import time via :func:`register`.

Each rule is a class with a stable ``name``, a default :class:`Severity`,
and a ``check(module)`` generator.  The registry keeps rules sorted by
name so output order — and therefore test expectations —
is stable regardless of import order.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Type

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding, Severity


class Rule:
    """Base class for fleetlint rules."""

    #: Stable rule identifier used in suppressions.
    name: str = ""
    #: One-line description shown by ``repro lint --list-rules``.
    description: str = ""
    #: Default severity for this rule's findings.
    severity: Severity = Severity.ERROR

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError

    def finding(
        self, module: ModuleContext, line: int, col: int, message: str
    ) -> Finding:
        """Build a finding at (line, col) with this rule's severity."""
        return Finding(
            rule=self.name,
            severity=self.severity,
            path=module.path,
            line=line,
            col=col,
            message=message,
            source_line=module.line_text(line),
        )


_RULES: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry."""
    if not rule_cls.name:
        raise ValueError(f"{rule_cls.__name__} has no rule name")
    if rule_cls.name in _RULES:
        raise ValueError(f"duplicate rule name: {rule_cls.name}")
    _RULES[rule_cls.name] = rule_cls
    return rule_cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by name."""
    _load_builtin_rules()
    return [_RULES[name]() for name in sorted(_RULES)]


def get_rule(name: str) -> Rule:
    """Instantiate one registered rule by name."""
    _load_builtin_rules()
    if name not in _RULES:
        known = ", ".join(sorted(_RULES))
        raise KeyError(f"unknown rule {name!r} (known: {known})")
    return _RULES[name]()


def is_known_rule(name: str) -> bool:
    """Whether ``name`` is a registered rule (for suppression validation)."""
    _load_builtin_rules()
    return name in _RULES


def _load_builtin_rules() -> None:
    """Import the builtin rule modules exactly once (registration side effect)."""
    import repro.analysis.rules  # noqa: F401


def check_module(module: ModuleContext, rules: Iterable[Rule]) -> List[Finding]:
    """Run ``rules`` over one module, findings sorted by position."""
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule.check(module))
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings
