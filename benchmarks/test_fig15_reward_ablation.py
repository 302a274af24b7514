"""Figure 15 — ablation of the reward-function optimizations.

Paper: FleetIO-Customized-Local (per-cluster alpha but beta = 1, selfish)
gives agents no incentive to offer resources, so it performs like
Hardware Isolation; FleetIO-Unified-Global (beta blend but one unified
alpha = 0.01) helps inconsistently; full FleetIO gets both utilization
and isolation.
"""

import pytest

from benchmarks.common import (
    DURATION_S,
    MEASURE_AFTER_S,
    SEED,
    geomean,
    latency_name,
    pair_label,
    pair_results,
    print_expectation,
    print_header,
)
from repro.config import RLConfig
from repro.harness import Experiment, plans_for_pair

#: A subset of pairs keeps the ablation affordable; both latency
#: workloads are represented (the paper's inconsistency shows per pair).
ABLATION_PAIRS = (
    ("vdi-web", "terasort"),
    ("ycsb", "mlprep"),
    ("ycsb", "terasort"),
)

#: variant -> (pretrained-net variant, experiment kwargs).  The ablated
#: reward must shape *training*, not just deployment crediting, so each
#: variant deploys a policy pre-trained under its own reward.
VARIANTS = {
    "fleetio-custom-local": ("custom-local", {"rl_config": RLConfig(beta=1.0)}),
    "fleetio-unified-global": (
        "unified-global", {"fleetio_kwargs": {"unified_alpha_only": True}}
    ),
}


@pytest.fixture(scope="module")
def ablation():
    from repro.harness.pretrained import get_pretrained_net

    rows = {}
    for pair in ABLATION_PAIRS:
        base = pair_results(*pair, policies=("hardware", "software", "fleetio"))
        plans = plans_for_pair(*pair)
        for plan in plans:
            plan.slo_latency_us = base["hardware"].vssd(plan.name).p99_latency_us
        row = {
            "hardware": base["hardware"],
            "software": base["software"],
            "fleetio": base["fleetio"],
        }
        for variant, (net_variant, kwargs) in VARIANTS.items():
            experiment = Experiment(
                plans,
                "fleetio",
                seed=SEED,
                pretrained_net=get_pretrained_net(variant=net_variant),
                **kwargs,
            )
            row[variant] = experiment.run(DURATION_S, MEASURE_AFTER_S)
        rows[pair] = row
    return rows


def test_fig15a_utilization_ablation(benchmark, ablation):
    order = ["hardware", "fleetio-custom-local", "fleetio-unified-global", "fleetio", "software"]

    def regenerate():
        print_header("Figure 15a", "utilization with reward-function ablations")
        print(f"{'pair':>20s}" + "".join(f"{name:>24s}" for name in order))
        table = {}
        for pair, row in ablation.items():
            utils = {name: row[name].avg_utilization for name in order}
            table[pair] = utils
            print(f"{pair_label(pair):>20s}" + "".join(f"{utils[n]:24.2%}" for n in order))
        return table

    table = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    local = geomean(
        row["fleetio-custom-local"] / row["hardware"] for row in table.values()
    )
    full = geomean(row["fleetio"] / row["hardware"] for row in table.values())
    print_expectation(
        "Customized-Local ~= Hardware Isolation (beta=1 removes the "
        "incentive to offer); full FleetIO improves utilization",
        f"Customized-Local {local:.2f}x vs full FleetIO {full:.2f}x over HW",
    )
    # The selfish variant gains clearly less than full FleetIO.
    assert local < full
    assert full > 1.05


def test_fig15b_p99_ablation(benchmark, ablation):
    # Checked under --benchmark-only too (which skips plain tests).
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_header("Figure 15b", "P99 of latency workloads with reward ablations")
    for pair, row in ablation.items():
        lat = latency_name(pair)
        hw = row["hardware"].vssd(lat).p99_latency_us
        line = f"{pair_label(pair):>20s}"
        for name in ("fleetio-custom-local", "fleetio-unified-global", "fleetio", "software"):
            line += f" {name}={row[name].vssd(lat).p99_latency_us / hw:5.2f}x"
        print(line)
    # Full FleetIO's tails stay below software isolation's on every pair.
    for pair, row in ablation.items():
        lat = latency_name(pair)
        assert (
            row["fleetio"].vssd(lat).p99_latency_us
            < row["software"].vssd(lat).p99_latency_us
        ), pair
