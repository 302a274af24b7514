"""Engine behavior: suppressions, JSON output, CLI."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parents[2]

# mutable-default-arg applies in every package, so this snippet is
# flagged regardless of the path it is linted under.
FLAGGED = "def f(items=[]):\n    return items\n"


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_trailing_suppression_silences_its_line(self):
        src = (
            "import time\n"
            "now = time.time()  # fleetlint: disable=sim-wall-clock  test fixture\n"
        )
        report = lint_source(src)
        assert not report.findings
        assert [f.rule for f in report.suppressed] == ["sim-wall-clock"]

    def test_standalone_suppression_covers_next_line(self):
        src = (
            "import time\n"
            "# fleetlint: disable=sim-wall-clock  test fixture\n"
            "now = time.time()\n"
        )
        report = lint_source(src)
        assert not report.findings
        assert [f.rule for f in report.suppressed] == ["sim-wall-clock"]

    def test_suppression_is_rule_specific(self):
        src = (
            "import time\n"
            "now = time.time()  # fleetlint: disable=unseeded-rng  wrong rule\n"
        )
        report = lint_source(src)
        assert [f.rule for f in report.findings] == ["sim-wall-clock"]

    def test_missing_reason_is_an_error(self):
        src = (
            "import time\n"
            "now = time.time()  # fleetlint: disable=sim-wall-clock\n"
        )
        report = lint_source(src)
        rules = {f.rule for f in report.findings}
        assert "bad-suppression" in rules

    def test_unknown_rule_is_an_error(self):
        # ``all`` is not a blanket spelling: a marker names its rules.
        for rule in ("no-such-rule", "all"):
            src = f"x = 1  # fleetlint: disable={rule}  because\n"
            report = lint_source(src)
            assert {f.rule for f in report.findings} == {"bad-suppression"}, rule

    def test_marker_in_string_literal_is_ignored(self):
        src = 'msg = "# fleetlint: disable=bogus"\n'
        report = lint_source(src)
        assert not report.findings

    def test_multi_rule_suppression(self):
        src = (
            "import time, random\n"
            "x = time.time() + random.random()"
            "  # fleetlint: disable=sim-wall-clock,unseeded-rng  fixture\n"
        )
        report = lint_source(src)
        assert not report.findings
        assert {f.rule for f in report.suppressed} == {
            "sim-wall-clock",
            "unseeded-rng",
        }


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------
class TestOutput:
    def test_json_document_shape(self, tmp_path):
        target = tmp_path / "snip.py"
        target.write_text(FLAGGED)
        report = lint_paths([target], root=tmp_path)
        doc = report.to_json()
        assert doc["version"] == 1
        assert doc["files"] == 1
        assert doc["summary"]["errors"] == len(report.errors)
        (entry,) = doc["findings"]
        assert entry["rule"] == "mutable-default-arg"
        assert entry["line"] == 1
        assert entry["fingerprint"]
        json.dumps(doc)  # must be serializable

    def test_fingerprint_survives_line_moves(self):
        before = lint_source(FLAGGED, path="src/repro/harness/snip.py").findings
        shifted = "\n\n\ndef f(items=[]):\n    return items\n"
        after = lint_source(shifted, path="src/repro/harness/snip.py").findings
        assert before[0].fingerprint() == after[0].fingerprint()
        assert before[0].line != after[0].line

    def test_text_summary_line(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        report = lint_paths([target], root=tmp_path)
        text = report.render_text()
        assert "fleetlint: 1 files, 0 errors, 0 warnings" in text

    def test_parse_error_is_reported_not_raised(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n")
        report = lint_paths([target], root=tmp_path)
        assert [f.rule for f in report.findings] == ["parse-error"]
        assert report.exit_code() == 1


# ----------------------------------------------------------------------
# Self-lint regression (satellite: the repo itself stays clean)
# ----------------------------------------------------------------------
class TestSelfLint:
    def test_repo_lints_clean(self):
        report = lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
        assert report.exit_code(strict=True) == 0, report.render_text()

    def test_every_suppression_has_a_reason(self):
        # parse_suppressions already turns reasonless markers into
        # bad-suppression errors; assert directly so the contract is
        # explicit even if the engine policy ever loosens.
        from repro.analysis import parse_suppressions

        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            lines = path.read_text().splitlines()
            markers = parse_suppressions(str(path), lines)
            assert not markers.problems, [f.render() for f in markers.problems]
            for suppression in markers.suppressions:
                assert suppression.reason.strip(), (
                    f"{path}:{suppression.line} suppression without a reason"
                )

    def test_every_marker_silences_a_finding(self):
        # A marker that covers no finding is stale: the code it excused
        # changed, or the rule it names no longer looks there.
        from repro.analysis import parse_suppressions

        report = lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
        stale = []
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            rel = path.relative_to(REPO_ROOT).as_posix()
            source = path.read_text()
            markers = parse_suppressions(rel, source.splitlines(), ast.parse(source))
            for marker in markers.suppressions:
                if not any(
                    f.path == rel and marker.covers(f.rule, f.line)
                    for f in report.suppressed
                ):
                    stale.append(f"{rel}:{marker.line}")
        assert not stale, stale

    def test_cli_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "src/repro"],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "fleetlint:" in proc.stdout


# ----------------------------------------------------------------------
# Multi-line statement suppression spans
# ----------------------------------------------------------------------
class TestSuppressionSpans:
    def test_trailing_marker_covers_whole_statement(self):
        # The finding fires on line 3 (the time.time() call); the marker
        # sits on line 2, the first physical line of the statement.
        src = (
            "import time\n"
            "value = (  # fleetlint: disable=sim-wall-clock  span fixture\n"
            "    time.time()\n"
            ")\n"
        )
        report = lint_source(src)
        assert not report.findings
        assert [f.rule for f in report.suppressed] == ["sim-wall-clock"]

    def test_marker_on_last_line_covers_earlier_lines(self):
        src = (
            "import time\n"
            "value = (\n"
            "    time.time()\n"
            ")  # fleetlint: disable=sim-wall-clock  span fixture\n"
        )
        report = lint_source(src)
        assert not report.findings
        assert [f.rule for f in report.suppressed] == ["sim-wall-clock"]

    def test_span_is_the_smallest_containing_statement(self):
        # The marker is on the body assignment inside the with-block; it
        # must not bleed over to the sibling statement below.
        src = (
            "import time\n"
            "with open('x') as fh:\n"
            "    a = (\n"
            "        time.time()\n"
            "    )  # fleetlint: disable=sim-wall-clock  span fixture\n"
            "    b = time.time()\n"
        )
        report = lint_source(src)
        assert [f.rule for f in report.findings] == ["sim-wall-clock"]
        assert [f.line for f in report.findings] == [6]
        assert [f.line for f in report.suppressed] == [4]

    def test_standalone_marker_covers_following_statement(self):
        src = (
            "import time\n"
            "# fleetlint: disable=sim-wall-clock  span fixture\n"
            "value = (\n"
            "    time.time()\n"
            ")\n"
        )
        report = lint_source(src)
        assert not report.findings
        assert [f.rule for f in report.suppressed] == ["sim-wall-clock"]

