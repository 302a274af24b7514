"""Engine behavior: suppressions, JSON output, CLI."""

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
        src = "x = 1  # fleetlint: disable=no-such-rule  because\n"
        report = lint_source(src)
        assert {f.rule for f in report.findings} == {"bad-suppression"}

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


# ----------------------------------------------------------------------
# --changed-only
# ----------------------------------------------------------------------
class TestChangedOnly:
    def _git(self, cwd, *argv):
        subprocess.run(
            ["git", *argv],
            cwd=cwd,
            check=True,
            capture_output=True,
            env={
                **os.environ,
                "GIT_AUTHOR_NAME": "t",
                "GIT_AUTHOR_EMAIL": "t@t",
                "GIT_COMMITTER_NAME": "t",
                "GIT_COMMITTER_EMAIL": "t@t",
            },
        )

    def test_lints_only_git_dirty_files(self, tmp_path):
        src = tmp_path / "src" / "repro" / "sim"
        src.mkdir(parents=True)
        (src / "clean.py").write_text(FLAGGED)
        (src / "dirty.py").write_text("x = 1\n")
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-qm", "seed")
        (src / "dirty.py").write_text(FLAGGED)

        full = lint_paths([tmp_path / "src"], root=tmp_path)
        assert full.files == 2
        changed = lint_paths([tmp_path / "src"], root=tmp_path, changed_only=True)
        assert changed.files == 1
        assert {f.path for f in changed.findings} == {"src/repro/sim/dirty.py"}

    def test_untracked_files_count_as_changed(self, tmp_path):
        src = tmp_path / "src" / "repro" / "sim"
        src.mkdir(parents=True)
        (src / "old.py").write_text("x = 1\n")
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-qm", "seed")
        (src / "new.py").write_text(FLAGGED)

        changed = lint_paths([tmp_path / "src"], root=tmp_path, changed_only=True)
        assert changed.files == 1
        assert {f.path for f in changed.findings} == {"src/repro/sim/new.py"}

    def test_outside_git_falls_back_to_everything(self, tmp_path, monkeypatch):
        # /tmp is not a repo; _changed_files must return None and the
        # lint must cover all files rather than silently skipping them.
        src = tmp_path / "src" / "repro" / "sim"
        src.mkdir(parents=True)
        (src / "a.py").write_text(FLAGGED)
        (src / "b.py").write_text("x = 1\n")
        monkeypatch.setenv("GIT_DIR", str(tmp_path / "no-such-git-dir"))
        report = lint_paths([tmp_path / "src"], root=tmp_path, changed_only=True)
        assert report.files == 2
