"""Shared infrastructure for the figure-reproduction benchmarks.

Experiment runs are expensive (tens of simulated seconds each), and
several figures share the same underlying runs (Figures 10-13 all derive
from the six standard two-tenant collocations).  This module caches runs
in-process so one ``pytest benchmarks/`` invocation computes each run
exactly once, and provides the paper-vs-measured printing helpers every
benchmark uses.
"""

from __future__ import annotations

import numpy as np

from repro.harness import POLICIES, VssdPlan, run_policy_comparison

#: The six standard collocations of Section 4.2 (latency, bandwidth).
STANDARD_PAIRS = (
    ("vdi-web", "terasort"),
    ("vdi-web", "mlprep"),
    ("vdi-web", "pagerank"),
    ("ycsb", "terasort"),
    ("ycsb", "mlprep"),
    ("ycsb", "pagerank"),
)

#: Table 5's workload mixes for the scalability study.
SCALABILITY_MIXES = {
    "mix1": ["vdi-web", "terasort"],
    "mix2": ["ycsb", "pagerank"],
    "mix3": ["vdi-web", "vdi-web", "terasort", "terasort"],
    "mix4": ["vdi-web", "ycsb", "terasort", "pagerank"],
    "mix5": [
        "vdi-web", "vdi-web", "vdi-web", "vdi-web",
        "terasort", "terasort", "pagerank", "mlprep",
    ],
}

DURATION_S = 20.0
MEASURE_AFTER_S = 6.0
SEED = 3

_pair_cache: dict = {}
_mix_cache: dict = {}


def _plans_for(workloads: list) -> list:
    plans = []
    counts: dict = {}
    for name in workloads:
        counts[name] = counts.get(name, 0) + 1
        suffix = f"-{counts[name]}" if workloads.count(name) > 1 else ""
        plans.append(VssdPlan(name, name=f"{name}{suffix}"))
    return plans


def pair_results(latency_workload: str, bandwidth_workload: str, policies=POLICIES) -> dict:
    """Cached all-policy comparison for one standard pair."""
    key = (latency_workload, bandwidth_workload)
    if key not in _pair_cache:
        _pair_cache[key] = run_policy_comparison(
            _plans_for([latency_workload, bandwidth_workload]),
            policies=POLICIES,
            duration_s=DURATION_S,
            measure_after_s=MEASURE_AFTER_S,
            seed=SEED,
        )
    full = _pair_cache[key]
    return {p: full[p] for p in policies if p in full}


def mix_results(label: str, policies=POLICIES) -> dict:
    """Cached all-policy comparison for one Table 5 mix."""
    if label not in _mix_cache:
        _mix_cache[label] = run_policy_comparison(
            _plans_for(SCALABILITY_MIXES[label]),
            policies=POLICIES,
            duration_s=DURATION_S,
            measure_after_s=MEASURE_AFTER_S,
            seed=SEED,
        )
    full = _mix_cache[label]
    return {p: full[p] for p in policies if p in full}


def latency_name(pair) -> str:
    return pair[0]


def bandwidth_name(pair) -> str:
    return pair[1]


def pair_label(pair) -> str:
    return f"{pair[0]}+{pair[1]}"


def print_header(figure: str, description: str) -> None:
    print(f"\n{'=' * 78}")
    print(f"{figure}: {description}")
    print("=" * 78)


def print_expectation(paper: str, measured: str) -> None:
    print(f"  paper:    {paper}")
    print(f"  measured: {measured}")


def geomean(values) -> float:
    values = np.asarray(list(values), dtype=float)
    values = values[values > 0]
    if len(values) == 0:
        return 0.0
    return float(np.exp(np.log(values).mean()))
