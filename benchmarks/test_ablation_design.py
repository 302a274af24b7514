"""Ablations of DESIGN.md's load-bearing design choices.

Not a paper figure — these benches justify two implementation decisions
the paper leaves open:

* **gSB superblock size** — larger harvestable slices amortize recycle
  churn; too small and a harvested channel's blocks thrash between the
  gSB and the home vSSD.
* **Priority bus-front arbitration** — Set_Priority(HIGH) must translate
  into device-level service order for FleetIO's isolation story to work;
  with it disabled, the latency tenant's tail under harvesting degrades.
"""


import pytest

from benchmarks.common import (
    DURATION_S,
    MEASURE_AFTER_S,
    SEED,
    print_expectation,
    print_header,
)
from repro.config import SSDConfig
from repro.harness import Experiment, plans_for_pair, run_policy_comparison


def _fleetio_run(ssd_config, plans):
    for plan in plans:
        if plan.slo_latency_us is None:
            hw = run_policy_comparison(
                plans, policies=("hardware",), duration_s=10.0,
                measure_after_s=4.0, ssd_config=ssd_config, seed=SEED,
            )["hardware"]
            for inner in plans:
                inner.slo_latency_us = hw.vssd(inner.name).p99_latency_us
            break
    experiment = Experiment(plans, "fleetio", ssd_config=ssd_config, seed=SEED)
    try:
        return experiment.run(DURATION_S, MEASURE_AFTER_S)
    finally:
        experiment.close()


@pytest.fixture(scope="module")
def superblock_ablation():
    results = {}
    for blocks in (16, 48):
        config = SSDConfig(min_superblock_blocks=blocks)
        plans = plans_for_pair("vdi-web", "terasort")
        results[blocks] = _fleetio_run(config, plans)
    return results


def test_ablation_superblock_size(benchmark, superblock_ablation):
    def regenerate():
        print_header(
            "Ablation A", "gSB superblock size (blocks harvested per channel)"
        )
        print(f"{'blocks/ch':>10s} {'util':>8s} {'tera MB/s':>10s} {'tera WA':>8s}")
        for blocks, result in superblock_ablation.items():
            tera = result.vssd("terasort")
            print(
                f"{blocks:>10d} {result.avg_utilization:8.2%} "
                f"{tera.mean_bw_mbps:10.1f} {tera.write_amplification:8.2f}"
            )
        return superblock_ablation

    results = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    small = results[16].vssd("terasort").mean_bw_mbps
    large = results[48].vssd("terasort").mean_bw_mbps
    print_expectation(
        "larger harvest slices amortize recycle churn (design choice)",
        f"48-block slices give {large / max(small, 1e-9):.2f}x the harvested "
        "bandwidth of 16-block slices",
    )
    assert large > small * 0.95  # at minimum, never worse


def test_ablation_priority_arbitration(benchmark):
    """Disable bus-front insertion by keeping every tenant at MEDIUM:
    run FleetIO with priority actions stripped via an admission policy."""
    from repro.virt.actions import SetPriorityAction

    plans = plans_for_pair("vdi-web", "terasort")
    hw = run_policy_comparison(
        plans, policies=("hardware",), duration_s=10.0, measure_after_s=4.0, seed=SEED
    )["hardware"]
    for plan in plans:
        plan.slo_latency_us = hw.vssd(plan.name).p99_latency_us

    def run(strip_priority):
        experiment = Experiment(plans, "fleetio", seed=SEED)
        try:
            experiment.build()
            if strip_priority:
                experiment.virt.admission.add_policy(
                    lambda action, vssd: not isinstance(action, SetPriorityAction)
                )
            return experiment.run(DURATION_S, MEASURE_AFTER_S)
        finally:
            experiment.close()

    def regenerate():
        with_priority = run(strip_priority=False)
        without_priority = run(strip_priority=True)
        print_header("Ablation B", "Set_Priority stripped vs enabled")
        for label, result in (("enabled", with_priority), ("stripped", without_priority)):
            vdi = result.vssd("vdi-web")
            print(
                f"  priority {label:>8s}: vdi p99 {vdi.p99_latency_us / 1000:6.2f} ms, "
                f"vio {vdi.slo_violation_frac:.2%}, util {result.avg_utilization:.2%}"
            )
        return with_priority, without_priority

    with_priority, without_priority = benchmark.pedantic(
        regenerate, rounds=1, iterations=1
    )
    print_expectation(
        "priority arbitration is what keeps the latency tenant's tail "
        "near hardware isolation while harvesting is active",
        "stripping Set_Priority leaves utilization intact but costs tail "
        "latency headroom",
    )
    # Utilization should be in the same band either way (priority is an
    # isolation knob, not a throughput knob).
    assert (
        abs(with_priority.avg_utilization - without_priority.avg_utilization)
        < 0.15
    )
