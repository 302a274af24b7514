"""fleetlint: determinism & unit-safety static analysis for this repo.

The FleetIO reproduction promises byte-identical telemetry between serial
and parallel runs, and every experiment is keyed by an explicit seed.
``fleetlint`` checks one module at a time for the causes a run-time
comparison cannot see or cannot name: wall-clock reads and global or
ad-hoc-derived RNGs in the deterministic core, iteration over unordered
containers (string-set order follows ``PYTHONHASHSEED``, which forked
serial/parallel twins share), unit mixing between
``_bytes``/``_pages``/``_us``/``_s`` quantities, float timestamp
equality and mutable defaults.  Cross-module properties (worker writes
that die with the fork, stream leaks, telemetry written outside the
monitor) are held at run time by the serial-vs-parallel byte-equality
suites, the pinned digests and :mod:`repro.analysis.detsan`.

Run it with ``python -m repro lint`` or through :func:`run_lint`.
"""

from repro.analysis.context import DETERMINISTIC_CORE, ModuleContext, module_package
from repro.analysis.engine import LintReport, lint_paths, lint_source, run_lint
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
    "module_package",
    "parse_suppressions",
    "register",
    "run_lint",
]
