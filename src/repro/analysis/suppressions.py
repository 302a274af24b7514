"""Inline suppressions: ``# fleetlint: disable=<rule>[,<rule>...]  reason``.

A suppression silences matching findings on the statement it annotates,
and the trailing reason is mandatory — a suppression without one is
itself reported under the ``bad-suppression`` meta-rule, so "why is this
OK?" is always answered in the source.

Placement grammar:

* trailing a single-line statement — covers that line;
* on a line of its own — covers the statement starting on the next line
  (its full multi-line extent);
* trailing *any* physical line of a multi-line statement (including the
  closing ``)`` black likes to put on its own line) — covers the whole
  statement's line span, so reformatting a long expression can no longer
  orphan its suppression.

Markers are recognized in real comment tokens only (via ``tokenize``),
so prose or string literals that merely mention the marker syntax are
never misparsed.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.analysis.findings import Finding, Severity

#: A comment that is trying to be a fleetlint marker.
_MARKER_RE = re.compile(r"#\s*fleetlint\s*:")

#: A well-formed marker: comma-separated rule list (no spaces), then the
#: reason after whitespace.
_SUPPRESSION_RE = re.compile(
    r"#\s*fleetlint\s*:\s*disable=(?P<rules>[A-Za-z0-9_,\-]+)\s*(?P<reason>.*)"
)


@dataclass(frozen=True)
class Suppression:
    """One inline suppression comment.

    ``start``/``end`` bound the 1-indexed line span this marker covers:
    the annotated statement's full extent when the statement is known,
    otherwise the marker's own line (trailing) or the next line
    (standalone).
    """

    line: int
    rules: Tuple[str, ...]
    reason: str
    standalone: bool = False
    start: int = 0
    end: int = 0

    def __post_init__(self) -> None:
        if self.start == 0:
            target = self.line + 1 if self.standalone else self.line
            object.__setattr__(self, "start", target)
        if self.end == 0:
            object.__setattr__(self, "end", max(self.start, self.line))

    def covers(self, rule: str, line: int) -> bool:
        """Whether this suppression silences ``rule`` on ``line``."""
        if not (self.start <= line <= self.end):
            return False
        return rule in self.rules


@dataclass
class SuppressionSet:
    """All suppressions in one module, plus malformed-marker findings."""

    suppressions: List[Suppression] = field(default_factory=list)
    problems: List[Finding] = field(default_factory=list)

    def is_suppressed(self, finding: Finding) -> bool:
        """Whether any suppression covers ``finding``."""
        return any(s.covers(finding.rule, finding.line) for s in self.suppressions)


def _comment_tokens(source: str) -> List[Tuple[int, int, str]]:
    """(line, col, text) for every comment token in ``source``.

    Tokenization errors (which only happen on files the AST parser would
    reject anyway) yield no comments rather than raising.
    """
    comments: List[Tuple[int, int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.start[1], tok.string))
    except (tokenize.TokenizeError, IndentationError, SyntaxError):
        return comments
    return comments


def _statement_spans(tree: Optional[ast.AST]) -> List[Tuple[int, int]]:
    """(lineno, end_lineno) for every statement, innermost-last.

    Sorted by ascending span width so the *smallest* statement containing
    a marker line wins: a suppression trailing a simple statement inside
    a long function covers that statement alone, never the whole body.
    """
    if tree is None:
        return []
    spans = [
        (node.lineno, node.end_lineno or node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt)
    ]
    spans.sort(key=lambda span: (span[1] - span[0], span[0]))
    return spans


def _span_for(
    lineno: int, standalone: bool, spans: List[Tuple[int, int]]
) -> Tuple[int, int]:
    """The line span a marker at ``lineno`` covers."""
    if standalone:
        # Cover the statement *starting* just below the marker (skipping
        # further comment-only lines is unnecessary: markers annotate the
        # statement they sit on top of).
        for start, end in spans:
            if start == lineno + 1:
                return start, end
        return lineno + 1, lineno + 1
    # Trailing marker: smallest statement whose extent contains the line.
    for start, end in spans:
        if start <= lineno <= end:
            return start, end
    return lineno, lineno


def parse_suppressions(
    path: str, lines: List[str], tree: Optional[ast.AST] = None
) -> SuppressionSet:
    """Scan a module's source for suppression markers.

    ``lines`` is the module's source split into lines (as held by
    :class:`~repro.analysis.context.ModuleContext`); pass the parsed
    ``tree`` as well so markers trailing a continuation line of a
    multi-line statement cover the whole statement.  Markers with an
    empty reason or naming an unknown rule yield ``bad-suppression``
    findings instead of silently (not) applying.
    """
    from repro.analysis.registry import is_known_rule

    result = SuppressionSet()
    spans = _statement_spans(tree)
    for lineno, col, text in _comment_tokens("\n".join(lines)):
        if not _MARKER_RE.search(text):
            continue
        match = _SUPPRESSION_RE.search(text)
        if match is None:
            result.problems.append(
                _problem(path, lineno, col, text, "unparsable fleetlint marker")
            )
            continue
        rules = tuple(r.strip() for r in match.group("rules").split(",") if r.strip())
        reason = match.group("reason").strip()
        unknown = [r for r in rules if not is_known_rule(r)]
        if unknown:
            result.problems.append(
                _problem(
                    path, lineno, col, text, f"unknown rule(s): {', '.join(unknown)}"
                )
            )
            continue
        if not reason:
            result.problems.append(
                _problem(
                    path,
                    lineno,
                    col,
                    text,
                    "suppression has no reason; write "
                    "'# fleetlint: disable=<rule>  <why this is safe>'",
                )
            )
            continue
        standalone = 1 <= lineno <= len(lines) and lines[lineno - 1].lstrip().startswith("#")
        start, end = _span_for(lineno, standalone, spans)
        result.suppressions.append(
            Suppression(lineno, rules, reason, standalone, start=start, end=end)
        )
    return result


def _problem(path: str, lineno: int, col: int, text: str, message: str) -> Finding:
    return Finding(
        rule="bad-suppression",
        severity=Severity.ERROR,
        path=path,
        line=lineno,
        col=col + 1,
        message=message,
        source_line=text,
    )
