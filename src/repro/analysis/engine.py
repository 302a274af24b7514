"""The fleetlint engine: file discovery, rule dispatch, reporting.

``lint_paths`` is the library entry point; ``run_lint`` adds output
formatting and exit-code policy for the CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, all_rules, check_module, get_rule
from repro.analysis.suppressions import parse_suppressions

#: Directories never descended into during file discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".ruff_cache", ".mypy_cache", "build", "dist"}


@dataclass
class LintReport:
    """The outcome of one lint run."""

    #: Findings that survived suppressions.
    findings: List[Finding] = field(default_factory=list)
    #: Findings silenced by an inline suppression.
    suppressed: List[Finding] = field(default_factory=list)
    #: Files analysed.
    files: int = 0

    @property
    def errors(self) -> List[Finding]:
        """Active findings at ERROR severity."""
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        """Active findings at WARNING severity."""
        return [f for f in self.findings if f.severity is Severity.WARNING]

    def exit_code(self, strict: bool = False) -> int:
        """0 when clean; 1 when findings gate the build.

        Non-strict runs fail on errors; ``--strict`` (what CI uses)
        also fails on warnings.
        """
        if self.errors:
            return 1
        if strict and self.warnings:
            return 1
        return 0

    def to_json(self) -> dict:
        """JSON document for ``--format json``."""
        return {
            "version": 1,
            "files": self.files,
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "suppressed": len(self.suppressed),
            },
            "findings": [f.to_json() for f in self.findings],
            "suppressed": [f.to_json() for f in self.suppressed],
        }

    def render_text(self, verbose: bool = False) -> str:
        """Human-readable report."""
        lines = [f.render() for f in self.findings]
        if verbose:
            lines.extend(f"{f.render()}  (suppressed)" for f in self.suppressed)
        lines.append(
            f"fleetlint: {self.files} files, {len(self.errors)} errors, "
            f"{len(self.warnings)} warnings "
            f"({len(self.suppressed)} suppressed)"
        )
        return "\n".join(lines)


def discover_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Python files under ``paths``, sorted for deterministic output."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                p
                for p in path.rglob("*.py")
                if not _SKIP_DIRS.intersection(p.parts)
            )
        elif path.suffix == ".py":
            files.append(path)
    return sorted(set(files))


def _select_rules(only: Optional[Sequence[str]]) -> List[Rule]:
    if only:
        return [get_rule(name) for name in only]
    return all_rules()


def lint_source(
    source: str,
    path: str = "src/repro/sim/snippet.py",
    rules: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint a source string as if it lived at ``path`` (test helper)."""
    report = LintReport()
    _lint_module(report, ModuleContext.from_source(path, source), _select_rules(rules))
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


def _lint_module(report: LintReport, module: ModuleContext, rules: List[Rule]) -> None:
    """Run ``rules`` over one parsed file into ``report``, routing each
    finding through the file's suppression markers."""
    markers = parse_suppressions(module.path, module.lines, module.tree)
    report.files += 1
    report.findings.extend(markers.problems)
    for finding in check_module(module, rules):
        if markers.is_suppressed(finding):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)


def lint_paths(
    paths: Sequence[Union[str, Path]],
    rules: Optional[Sequence[str]] = None,
    root: Optional[Path] = None,
) -> LintReport:
    """Lint every Python file under ``paths``.

    Paths in findings are made relative to ``root`` (default: the current
    directory) so fingerprints are checkout-independent.  Each file is
    parsed exactly once and checked on its own: no rule looks across
    modules.
    """
    selected = _select_rules(rules)
    root_path = (root or Path.cwd()).resolve()
    report = LintReport()
    for file_path in discover_files(paths):
        try:
            rel = file_path.resolve().relative_to(root_path).as_posix()
        except ValueError:
            rel = file_path.as_posix()
        try:
            module = ModuleContext.from_source(rel, file_path.read_text())
        except SyntaxError as error:
            report.findings.append(
                Finding(
                    rule="parse-error",
                    severity=Severity.ERROR,
                    path=rel,
                    line=error.lineno or 1,
                    col=error.offset or 1,
                    message=f"cannot parse: {error.msg}",
                )
            )
            report.files += 1
            continue
        _lint_module(report, module, selected)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


def run_lint(
    paths: Sequence[Union[str, Path]],
    output_format: str = "text",
    strict: bool = False,
    rules: Optional[Sequence[str]] = None,
    verbose: bool = False,
) -> int:
    """CLI workhorse: lint, print, return the process exit code."""
    report = lint_paths(paths, rules=rules)
    if output_format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render_text(verbose=verbose))
    return report.exit_code(strict=strict)
