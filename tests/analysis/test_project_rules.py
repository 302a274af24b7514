"""Fixture tests for the whole-program (interprocedural) rules.

Each of the four project rules gets cross-module fixtures it must flag
and near-miss fixtures it must stay silent on.  ``lint_sources`` lints a
dict of path -> source as one program, so fixtures exercise the call
graph and dataflow passes without touching the filesystem.  Paths under
``src/repro/...`` give the modules their real dotted names, which is
what the rules key their ownership checks on.
"""

from pathlib import Path

from repro.analysis import Severity, lint_paths, lint_sources

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"

# The streams hub the stream-leak rule recognizes; fixtures that need a
# RandomStreams receiver include this stub under its canonical path.
STREAMS_STUB = """\
class RandomStreams:
    def __init__(self, seed=0):
        self._streams = {}

    def get(self, name):
        return self._streams.setdefault(name, object())
"""


def rules_hit(sources, **kwargs):
    return {f.rule for f in lint_sources(sources, **kwargs).findings}


def findings_for(sources, rule):
    return [
        f for f in lint_sources(sources, rules=[rule]).findings if f.rule == rule
    ]


# ----------------------------------------------------------------------
# rng-stream-leak
# ----------------------------------------------------------------------
class TestStreamLeak:
    def test_flags_module_level_hub(self):
        sources = {
            "src/repro/sim/random.py": STREAMS_STUB,
            "src/repro/workloads/gen.py": (
                "from repro.sim.random import RandomStreams\n"
                "STREAMS = RandomStreams(seed=0)\n"
            ),
        }
        hits = findings_for(sources, "rng-stream-leak")
        assert len(hits) == 1
        assert hits[0].path == "src/repro/workloads/gen.py"
        assert hits[0].line == 2

    def test_flags_module_level_stream_generator(self):
        sources = {
            "src/repro/sim/random.py": STREAMS_STUB,
            "src/repro/ssd/gc.py": (
                "from repro.sim.random import RandomStreams\n"
                'RNG = RandomStreams(0).get("gc")\n'
            ),
        }
        assert "rng-stream-leak" in rules_hit(sources)

    def test_flags_cross_package_stream_return(self):
        sources = {
            "src/repro/sim/random.py": STREAMS_STUB,
            "src/repro/ssd/util.py": (
                "from repro.sim.random import RandomStreams\n"
                "\n"
                "def gc_rng(streams: RandomStreams):\n"
                '    return streams.get("gc")\n'
            ),
            "src/repro/core/user.py": (
                "from repro.ssd.util import gc_rng\n"
                "\n"
                "def pick(streams):\n"
                "    return gc_rng(streams).random()\n"
            ),
        }
        hits = findings_for(sources, "rng-stream-leak")
        assert len(hits) == 1
        assert hits[0].path == "src/repro/ssd/util.py"
        assert "repro.core" in hits[0].message

    def test_clean_same_package_return(self):
        sources = {
            "src/repro/sim/random.py": STREAMS_STUB,
            "src/repro/ssd/util.py": (
                "from repro.sim.random import RandomStreams\n"
                "\n"
                "def gc_rng(streams: RandomStreams):\n"
                '    return streams.get("gc")\n'
            ),
            "src/repro/ssd/gc.py": (
                "from repro.ssd.util import gc_rng\n"
                "\n"
                "def collect(streams):\n"
                "    return gc_rng(streams).random()\n"
            ),
        }
        assert "rng-stream-leak" not in rules_hit(sources)

    def test_flags_same_stream_name_from_two_packages(self):
        sources = {
            "src/repro/sim/random.py": STREAMS_STUB,
            "src/repro/ssd/gc.py": (
                "from repro.sim.random import RandomStreams\n"
                "\n"
                "def pick(streams: RandomStreams):\n"
                '    return streams.get("victim").random()\n'
            ),
            "src/repro/core/policy.py": (
                "from repro.sim.random import RandomStreams\n"
                "\n"
                "def decide(streams: RandomStreams):\n"
                '    return streams.get("victim").random()\n'
            ),
        }
        hits = findings_for(sources, "rng-stream-leak")
        # Home package is the alphabetically first (repro.core); the
        # draw from repro.ssd is the flagged intruder.
        assert len(hits) == 1
        assert hits[0].path == "src/repro/ssd/gc.py"

    def test_clean_distinct_stream_names(self):
        sources = {
            "src/repro/sim/random.py": STREAMS_STUB,
            "src/repro/ssd/gc.py": (
                "from repro.sim.random import RandomStreams\n"
                "\n"
                "def pick(streams: RandomStreams):\n"
                '    return streams.get("gc:victim").random()\n'
            ),
            "src/repro/core/policy.py": (
                "from repro.sim.random import RandomStreams\n"
                "\n"
                "def decide(streams: RandomStreams):\n"
                '    return streams.get("policy:explore").random()\n'
            ),
        }
        assert "rng-stream-leak" not in rules_hit(sources)


# ----------------------------------------------------------------------
# parallel-shared-mutation
# ----------------------------------------------------------------------
WORKER_STUB = """\
from repro.harness.cache import record, absorb_profile

def _run_experiment(cell):
    record(cell)
    return cell

RUNNERS = {"experiment": _run_experiment}

def run_cell(cell):
    absorb_profile(cell)
    return RUNNERS[cell.runner](cell)
"""


class TestSharedMutation:
    def test_flags_global_write_reachable_from_worker(self):
        sources = {
            "src/repro/parallel/worker.py": WORKER_STUB,
            "src/repro/harness/cache.py": (
                "_CACHE = {}\n"
                "\n"
                "def record(cell):\n"
                "    _CACHE[cell] = 1\n"
                "\n"
                "def absorb_profile(cell):\n"
                "    pass\n"
            ),
        }
        hits = findings_for(sources, "parallel-shared-mutation")
        assert len(hits) == 1
        assert hits[0].path == "src/repro/harness/cache.py"
        assert hits[0].line == 4

    def test_flags_mutator_method_call(self):
        sources = {
            "src/repro/parallel/worker.py": WORKER_STUB,
            "src/repro/harness/cache.py": (
                "_SEEN = []\n"
                "\n"
                "def record(cell):\n"
                "    _SEEN.append(cell)\n"
                "\n"
                "def absorb_profile(cell):\n"
                "    pass\n"
            ),
        }
        assert "parallel-shared-mutation" in rules_hit(sources)

    def test_clean_absorb_function_is_sanctioned(self):
        sources = {
            "src/repro/parallel/worker.py": WORKER_STUB,
            "src/repro/harness/cache.py": (
                "_MERGED = {}\n"
                "\n"
                "def record(cell):\n"
                "    pass\n"
                "\n"
                "def absorb_profile(cell):\n"
                "    _MERGED[cell] = 1\n"
            ),
        }
        assert "parallel-shared-mutation" not in rules_hit(sources)

    def test_clean_unreachable_writer(self):
        sources = {
            "src/repro/parallel/worker.py": WORKER_STUB,
            "src/repro/harness/cache.py": (
                "_CACHE = {}\n"
                "\n"
                "def record(cell):\n"
                "    pass\n"
                "\n"
                "def absorb_profile(cell):\n"
                "    pass\n"
                "\n"
                "def offline_tool(cell):\n"
                "    _CACHE[cell] = 1\n"
            ),
        }
        assert "parallel-shared-mutation" not in rules_hit(sources)

    def test_clean_local_shadow(self):
        sources = {
            "src/repro/parallel/worker.py": WORKER_STUB,
            "src/repro/harness/cache.py": (
                "_CACHE = {}\n"
                "\n"
                "def record(cell):\n"
                "    _CACHE = {}\n"
                "    _CACHE[cell] = 1\n"
                "\n"
                "def absorb_profile(cell):\n"
                "    pass\n"
            ),
        }
        assert "parallel-shared-mutation" not in rules_hit(sources)


# ----------------------------------------------------------------------
# hotpath-alloc
# ----------------------------------------------------------------------
# Fixture FTLs define every ``VssdFtl`` hot root: a root whose module is
# linted but which names no function there is itself an error finding.
FTL_OTHER_ROOTS = (
    "\n"
    "    def read_span(self, lpns):\n"
    "        pass\n"
)


class TestHotpathAlloc:
    def test_flags_comprehension_in_hot_loop(self):
        sources = {
            "src/repro/ssd/ftl.py": (
                "class VssdFtl:\n"
                "    def write_span(self, lpns):\n"
                "        for lpn in lpns:\n"
                "            pages = [p for p in self._map(lpn)]\n"
                "            self._commit(pages)\n"
                "\n"
                "    def _map(self, lpn):\n"
                "        return (lpn,)\n"
                "\n"
                "    def _commit(self, pages):\n"
                "        pass\n"
            ) + FTL_OTHER_ROOTS,
        }
        hits = findings_for(sources, "hotpath-alloc")
        assert len(hits) == 1
        assert hits[0].line == 4

    def test_flags_allocation_in_reachable_callee(self):
        sources = {
            "src/repro/ssd/ftl.py": (
                "from repro.ssd.alloc import pick_block\n"
                "\n"
                "class VssdFtl:\n"
                "    def write_span(self, lpns):\n"
                "        return pick_block(lpns)\n"
            ) + FTL_OTHER_ROOTS,
            "src/repro/ssd/alloc.py": (
                "def pick_block(lpns):\n"
                "    out = None\n"
                "    for lpn in lpns:\n"
                "        out = {\"lpn\": lpn}\n"
                "    return out\n"
            ),
        }
        hits = findings_for(sources, "hotpath-alloc")
        assert len(hits) == 1
        assert hits[0].path == "src/repro/ssd/alloc.py"

    def test_clean_allocation_outside_loop(self):
        sources = {
            "src/repro/ssd/ftl.py": (
                "class VssdFtl:\n"
                "    def write_span(self, lpns):\n"
                "        pages = [p for p in lpns]\n"
                "        total = 0\n"
                "        for page in pages:\n"
                "            total += page\n"
                "        return total\n"
            ) + FTL_OTHER_ROOTS,
        }
        assert "hotpath-alloc" not in rules_hit(sources)

    def test_stale_root_is_an_error(self):
        # The module is linted, the class exists, the method does not:
        # the walk would skip the root and guard nothing behind it.
        sources = {
            "src/repro/sim/engine.py": (
                "class Event:\n"
                "    def cancel(self):\n"
                "        pass\n"
                "\n"
                "class Simulator:\n"
                "    def run_until(self, time_us):\n"
                "        pass\n"
            ),
        }
        hits = findings_for(sources, "hotpath-alloc")
        assert [h.severity for h in hits] == [Severity.ERROR]
        assert "repro.sim.engine.Simulator.schedule" in hits[0].message
        assert hits[0].path == "src/repro/sim/engine.py"

    def test_bogus_root_fails_the_real_tree(self, monkeypatch):
        from repro.analysis.rules import hotpath_alloc

        bogus = "repro.sim.engine.Simulator.cancel"  # the root PR 16 found stale
        monkeypatch.setattr(
            hotpath_alloc, "HOT_ROOTS", hotpath_alloc.HOT_ROOTS + (bogus,)
        )
        result = lint_paths([SRC / "sim"], rules=["hotpath-alloc"], root=REPO)
        assert [f.message.split()[2] for f in result.findings] == [bogus]
        assert result.findings[0].severity is Severity.ERROR

    def test_every_root_resolves_in_the_real_tree(self):
        result = lint_paths([SRC], rules=["hotpath-alloc"], root=REPO)
        assert not [f for f in result.findings if f.severity is Severity.ERROR]

    def test_clean_cold_function(self):
        sources = {
            "src/repro/harness/report.py": (
                "def render(rows):\n"
                "    out = []\n"
                "    for row in rows:\n"
                "        out.append({\"row\": row})\n"
                "    return out\n"
            ),
        }
        assert "hotpath-alloc" not in rules_hit(sources)


# ----------------------------------------------------------------------
# digest-contract
# ----------------------------------------------------------------------
MONITOR_STUB = """\
class WindowStats:
    pass

class VssdMonitor:
    def __init__(self):
        self.window_history = []

    def snapshot_window(self):
        self.window_history.append(WindowStats())
"""


class TestDigestContract:
    def test_flags_windowstats_outside_row_builders(self):
        sources = {
            "src/repro/core/monitor.py": MONITOR_STUB,
            "src/repro/rl/hack.py": (
                "from repro.core.monitor import WindowStats\n"
                "\n"
                "def fake_row():\n"
                "    return WindowStats()\n"
            ),
        }
        hits = findings_for(sources, "digest-contract")
        assert len(hits) == 1
        assert hits[0].path == "src/repro/rl/hack.py"

    def test_flags_history_mutation_outside_monitor(self):
        sources = {
            "src/repro/core/monitor.py": MONITOR_STUB,
            "src/repro/harness/patch.py": (
                "def drop_warmup(monitor):\n"
                "    monitor.window_history.clear()\n"
            ),
        }
        assert "digest-contract" in rules_hit(sources)

    def test_flags_history_store_outside_monitor(self):
        sources = {
            "src/repro/core/monitor.py": MONITOR_STUB,
            "src/repro/harness/patch.py": (
                "def reset(monitor):\n"
                "    monitor.window_history = []\n"
            ),
        }
        assert "digest-contract" in rules_hit(sources)

    def test_clean_fast_env_builds_rows(self):
        sources = {
            "src/repro/core/monitor.py": MONITOR_STUB,
            "src/repro/core/fast_env.py": (
                "from repro.core.monitor import WindowStats\n"
                "\n"
                "def build_row():\n"
                "    return WindowStats()\n"
            ),
        }
        assert "digest-contract" not in rules_hit(sources)

    def test_clean_reads_anywhere(self):
        sources = {
            "src/repro/core/monitor.py": MONITOR_STUB,
            "src/repro/harness/report.py": (
                "def rows(monitor):\n"
                "    return list(monitor.window_history)\n"
            ),
        }
        assert "digest-contract" not in rules_hit(sources)


# ----------------------------------------------------------------------
# suppressions apply to project-rule findings too
# ----------------------------------------------------------------------
class TestProjectSuppression:
    def test_suppressed_project_finding(self):
        sources = {
            "src/repro/core/monitor.py": MONITOR_STUB,
            "src/repro/harness/patch.py": (
                "def drop_warmup(monitor):\n"
                "    monitor.window_history.clear()"
                "  # fleetlint: disable=digest-contract  fixture exercising"
                " suppression routing\n"
            ),
        }
        report = lint_sources(sources, rules=["digest-contract"])
        assert not report.findings
        assert len(report.suppressed) == 1
