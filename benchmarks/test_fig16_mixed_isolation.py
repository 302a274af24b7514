"""Figure 16 — FleetIO over mixed hardware- and software-isolated vSSDs.

Paper setup: mix3 with each VDI-Web in a 4-channel hardware-isolated
vSSD and the two TeraSorts sharing an 8-channel software-isolated slice.
FleetIO achieves 1.27x utilization over Mixed Isolation and 1.42x
bandwidth for the TeraSorts (>= 94% of full software isolation's
utilization), with only a 1.19x tail increase.
"""

import pytest

from benchmarks.common import (
    DURATION_S,
    MEASURE_AFTER_S,
    SEED,
    print_expectation,
    print_header,
)
from repro.harness import Experiment, VssdPlan


def _plans():
    return [
        VssdPlan("vdi-web", name="vdi-web-1", n_channels=4, isolation="hardware"),
        VssdPlan("vdi-web", name="vdi-web-2", n_channels=4, isolation="hardware"),
        VssdPlan("terasort", name="terasort-1", isolation="software"),
        VssdPlan("terasort", name="terasort-2", isolation="software"),
    ]


def _run(plans, policy):
    experiment = Experiment(plans, policy, seed=SEED)
    try:
        return experiment.run(DURATION_S, MEASURE_AFTER_S)
    finally:
        experiment.close()


@pytest.fixture(scope="module")
def results():
    out = {}
    plans = _plans()
    out["mixed"] = _run(plans, "mixed")
    for plan in plans:
        plan.slo_latency_us = out["mixed"].vssd(plan.name).p99_latency_us
    out["fleetio"] = _run(plans, "fleetio-mixed")
    out["software"] = _run(plans, "software")
    return out


def test_fig16_mixed_isolation(benchmark, results):
    def regenerate():
        print_header(
            "Figure 16",
            "mix3 on mixed isolation: 2x VDI-Web (4ch HW) + 2x TeraSort (8ch SW)",
        )
        print(f"{'policy':>10s} {'util':>8s} {'vdi p99(ms)':>12s} {'tera MB/s':>10s}")
        rows = {}
        for policy, result in results.items():
            vdi_p99 = max(
                result.vssd("vdi-web-1").p99_latency_us,
                result.vssd("vdi-web-2").p99_latency_us,
            )
            tera_bw = (
                result.vssd("terasort-1").mean_bw_mbps
                + result.vssd("terasort-2").mean_bw_mbps
            )
            rows[policy] = (result.avg_utilization, vdi_p99, tera_bw)
            print(
                f"{policy:>10s} {result.avg_utilization:8.2%} "
                f"{vdi_p99 / 1000:12.2f} {tera_bw:10.1f}"
            )
        return rows

    rows = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    util_gain = rows["fleetio"][0] / max(rows["mixed"][0], 1e-9)
    bw_gain = rows["fleetio"][2] / max(rows["mixed"][2], 1e-9)
    print_expectation(
        "FleetIO 1.27x utilization and 1.42x TeraSort bandwidth over "
        "Mixed Isolation; >= 94% of software isolation's utilization",
        f"FleetIO {util_gain:.2f}x utilization, {bw_gain:.2f}x bandwidth; "
        f"{rows['fleetio'][0] / max(rows['software'][0], 1e-9):.0%} of software's",
    )
    assert util_gain > 1.05
    assert bw_gain > 1.05
    # Tails stay far closer to mixed isolation than software's.
    assert rows["fleetio"][1] < rows["software"][1]
