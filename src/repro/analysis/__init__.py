"""fleetlint: determinism & unit-safety static analysis for this repo.

The FleetIO reproduction promises byte-identical telemetry between serial
and parallel runs, and every experiment is keyed by an explicit seed.
Those contracts are enforced at runtime today — after the nondeterminism
has already happened.  ``fleetlint`` moves the check to analysis time: an
AST-based engine with rules that encode the repo's real invariants (no
wall-clock reads in the deterministic core, no unseeded or ad-hoc-derived
RNGs, no iteration over unordered containers, no unit mixing between
``_bytes``/``_pages``/``_us``/``_s`` quantities, ...).

Run it with ``python -m repro lint`` or through :func:`run_lint`.
"""

from repro.analysis.context import DETERMINISTIC_CORE, ModuleContext, module_package
from repro.analysis.engine import (
    LintReport,
    lint_paths,
    lint_source,
    lint_sources,
    run_lint,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, all_rules, get_rule, register
from repro.analysis.suppressions import Suppression, parse_suppressions

__all__ = [
    "DETERMINISTIC_CORE",
    "Finding",
    "LintReport",
    "ModuleContext",
    "Rule",
    "Severity",
    "Suppression",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "module_package",
    "parse_suppressions",
    "register",
    "run_lint",
]
