"""Finding and severity types shared by every fleetlint rule."""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict


class Severity(enum.Enum):
    """How seriously a finding gates the build.

    ``ERROR`` findings fail ``repro lint`` outright; ``WARNING`` findings
    fail only under ``--strict`` (which is what CI runs).
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is repo-relative with forward slashes so fingerprints are
    stable across checkouts and operating systems.
    """

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    #: The stripped source line, used for location-independent fingerprints.
    source_line: str = field(default="", compare=False)

    def fingerprint(self) -> str:
        """A line-number-independent identity (``to_json`` emits it).

        Hashing (path, rule, stripped source text) instead of the line
        number lets unrelated edits above a finding move it without
        changing its identity between two JSON reports.
        """
        payload = f"{self.path}\0{self.rule}\0{self.source_line.strip()}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def location(self) -> str:
        """``path:line:col`` for text output."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_json(self) -> Dict[str, Any]:
        """The JSON-output form of this finding."""
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }

    def render(self) -> str:
        """The text-output form of this finding."""
        return f"{self.location()}: {self.severity} [{self.rule}] {self.message}"
