"""Fixture-driven tests: each fleetlint rule on flagged and clean snippets.

Every rule gets at least one snippet it must flag and one clean snippet
it must stay silent on.  Snippets lint as if they lived in the
deterministic core (``lint_source`` defaults to a path under
``src/repro/sim/``) unless a host-facing path is passed explicitly.
"""

from repro.analysis import lint_source


def rules_hit(source, **kwargs):
    return {f.rule for f in lint_source(source, **kwargs).findings}


# ----------------------------------------------------------------------
# sim-wall-clock
# ----------------------------------------------------------------------
class TestSimWallClock:
    def test_flags_time_time_in_core(self):
        src = "import time\nnow = time.time()\n"
        assert "sim-wall-clock" in rules_hit(src)

    def test_flags_perf_counter_alias(self):
        src = "from time import perf_counter as pc\nt = pc()\n"
        assert "sim-wall-clock" in rules_hit(src)

    def test_flags_datetime_now(self):
        src = "import datetime\nd = datetime.datetime.now()\n"
        assert "sim-wall-clock" in rules_hit(src)

    def test_flags_time_time_in_adversarial(self):
        # Regret search promises serial == parallel bytes, so it is core.
        # The profiler only counts (layer time is the benchmark tracer's
        # job), so it is core too.
        for path, src in (
            ("src/repro/adversarial/x.py", "import time\nnow = time.time()\n"),
            ("src/repro/profiling/profiler.py", "import time\nt = time.perf_counter_ns()\n"),
        ):
            assert "sim-wall-clock" in rules_hit(src, path=path), path

    def test_clean_simulated_clock(self):
        src = "def advance(sim):\n    return sim.now + 5.0\n"
        assert "sim-wall-clock" not in rules_hit(src)

    def test_allowed_in_host_facing_package(self):
        src = "import time\nstarted = time.time()\n"
        hits = rules_hit(src, path="src/repro/harness/timing.py")
        assert "sim-wall-clock" not in hits

    def test_allowed_in_cli(self):
        src = "import time\nstarted = time.perf_counter()\n"
        assert "sim-wall-clock" not in rules_hit(src, path="src/repro/cli.py")


# ----------------------------------------------------------------------
# unseeded-rng
# ----------------------------------------------------------------------
class TestUnseededRng:
    def test_flags_stdlib_random(self):
        src = "import random\nx = random.random()\n"
        assert "unseeded-rng" in rules_hit(src)

    def test_flags_np_random_module_call(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert "unseeded-rng" in rules_hit(src)

    def test_flags_seed_arithmetic(self):
        src = "import numpy as np\nrng = np.random.default_rng(seed + 1)\n"
        assert "unseeded-rng" in rules_hit(src)

    def test_clean_default_rng_from_plain_seed(self):
        src = "import numpy as np\nrng = np.random.default_rng(seed)\n"
        assert "unseeded-rng" not in rules_hit(src)

    def test_clean_seed_sequence_spawn(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])\n"
        )
        assert "unseeded-rng" not in rules_hit(src)

    def test_generator_method_calls_are_fine(self):
        src = "def draw(rng):\n    return rng.random()\n"
        assert "unseeded-rng" not in rules_hit(src)


# ----------------------------------------------------------------------
# unordered-iteration
# ----------------------------------------------------------------------
class TestUnorderedIteration:
    def test_flags_set_literal_iteration(self):
        src = "for x in {1, 2, 3}:\n    print(x)\n"
        assert "unordered-iteration" in rules_hit(src)

    def test_flags_tracked_set_name(self):
        src = "seen = set()\nseen.add(1)\nfor x in seen:\n    pass\n"
        assert "unordered-iteration" in rules_hit(src)

    def test_flags_keys_iteration(self):
        src = "d = {}\nfor k in d.keys():\n    pass\n"
        assert "unordered-iteration" in rules_hit(src)

    def test_clean_sorted_set(self):
        src = "seen = set()\nfor x in sorted(seen):\n    pass\n"
        assert "unordered-iteration" not in rules_hit(src)

    def test_clean_dict_iteration(self):
        # Dicts preserve insertion order; iterating one directly is fine.
        src = "d = {}\nfor k in d:\n    pass\n"
        assert "unordered-iteration" not in rules_hit(src)


# ----------------------------------------------------------------------
# unit-mixing
# ----------------------------------------------------------------------
class TestUnitMixing:
    def test_flags_bytes_plus_pages(self):
        src = "def f(total_bytes, used_pages):\n    return total_bytes + used_pages\n"
        assert "unit-mixing" in rules_hit(src)

    def test_flags_us_vs_s_compare(self):
        src = "def late(deadline_us, now_s):\n    return now_s > deadline_us\n"
        assert "unit-mixing" in rules_hit(src)

    def test_clean_same_unit(self):
        src = "def f(a_bytes, b_bytes):\n    return a_bytes + b_bytes\n"
        assert "unit-mixing" not in rules_hit(src)

    def test_clean_conversion_via_multiplication(self):
        # A multiply is a unit conversion; the checker does not propagate.
        src = "def f(time_s):\n    return time_s * 1_000_000\n"
        assert "unit-mixing" not in rules_hit(src)

    def test_flags_bare_quantity_param(self):
        src = "def wait(timeout):\n    return timeout\n"
        assert "unit-mixing" in rules_hit(src)

    def test_clean_suffixed_quantity_param(self):
        src = "def wait(timeout_us):\n    return timeout_us\n"
        assert "unit-mixing" not in rules_hit(src)

    def test_private_function_params_exempt(self):
        src = "def _wait(timeout):\n    return timeout\n"
        assert "unit-mixing" not in rules_hit(src)


# ----------------------------------------------------------------------
# float-time-equality
# ----------------------------------------------------------------------
class TestFloatTimeEquality:
    def test_flags_timestamp_equality(self):
        src = "def due(now_us, deadline_us):\n    return now_us == deadline_us\n"
        assert "float-time-equality" in rules_hit(src)

    def test_flags_not_equal(self):
        src = "def pending(start_time, end_time):\n    return start_time != end_time\n"
        assert "float-time-equality" in rules_hit(src)

    def test_clean_ordering_compare(self):
        src = "def due(now_us, deadline_us):\n    return now_us >= deadline_us\n"
        assert "float-time-equality" not in rules_hit(src)

    def test_clean_non_time_equality(self):
        src = "def same(count_a, count_b):\n    return count_a == count_b\n"
        assert "float-time-equality" not in rules_hit(src)


# ----------------------------------------------------------------------
# mutable-default-arg
# ----------------------------------------------------------------------
class TestMutableDefaultArg:
    def test_flags_list_default(self):
        src = "def f(items=[]):\n    return items\n"
        assert "mutable-default-arg" in rules_hit(src)

    def test_flags_dict_constructor_default(self):
        src = "def f(opts=dict()):\n    return opts\n"
        assert "mutable-default-arg" in rules_hit(src)

    def test_flags_kwonly_default(self):
        src = "def f(*, seen=set()):\n    return seen\n"
        assert "mutable-default-arg" in rules_hit(src)

    def test_clean_none_default(self):
        src = "def f(items=None):\n    return items or []\n"
        assert "mutable-default-arg" not in rules_hit(src)

    def test_flags_outside_core_too(self):
        src = "def f(items=[]):\n    return items\n"
        hits = rules_hit(src, path="src/repro/harness/report.py")
        assert "mutable-default-arg" in hits


# ----------------------------------------------------------------------
# Cross-cutting behavior
# ----------------------------------------------------------------------
class TestFindingShape:
    def test_findings_carry_location_and_severity(self):
        src = "import time\nnow = time.time()\n"
        findings = lint_source(src).findings
        (finding,) = [f for f in findings if f.rule == "sim-wall-clock"]
        assert finding.line == 2
        assert finding.severity.value == "error"
        assert "time.time" in finding.message

    def test_rule_subset_restricts_checks(self):
        src = "import time\nnow = time.time()\nx = {1}\nfor i in x:\n    pass\n"
        findings = lint_source(src, rules=["unordered-iteration"]).findings
        assert {f.rule for f in findings} == {"unordered-iteration"}
