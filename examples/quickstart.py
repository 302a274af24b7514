"""Quickstart: deploy FleetIO on two collocated tenants.

Builds the simulated open-channel SSD, creates a latency-sensitive vSSD
(YCSB) and a bandwidth-intensive vSSD (TeraSort), deploys a pre-trained
RL agent on each, runs for 20 simulated seconds, and prints what the
agents did and what it bought.

Run:  python examples/quickstart.py
"""

from collections import Counter

from repro.harness import Experiment, plans_for_pair, run_policy_comparison


def main() -> None:
    plans = plans_for_pair("ycsb", "terasort")

    print("Running hardware isolation (the baseline that defines SLOs)...")
    baseline = run_policy_comparison(
        plans, policies=("hardware",), duration_s=20.0, measure_after_s=6.0
    )["hardware"]
    for name, vssd in baseline.vssds.items():
        print(f"  {vssd.summary_row()}")

    print("\nRunning FleetIO (pre-training is cached after the first call)...")
    experiment = Experiment(plans, "fleetio")
    try:
        result = experiment.run(duration_s=20.0, measure_after_s=6.0)
        for name, vssd in result.vssds.items():
            print(f"  {vssd.summary_row()}")

        print("\nWhat the RL agents decided, window by window:")
        controller = experiment.controller
        for plan in plans:
            vssd = experiment.virt.vssd_by_name(plan.name)
            agent = controller.agents[vssd.vssd_id]
            actions = Counter(
                controller.action_space.describe(a) for a in agent.actions_taken
            )
            print(f"  {plan.name:>10s} (cluster {agent.cluster}, alpha={agent.alpha}):")
            for action, count in actions.most_common(4):
                print(f"      {count:2d}x {action}")
    finally:
        experiment.close()

    hw_util, fl_util = baseline.avg_utilization, result.avg_utilization
    tera_gain = (
        result.vssd("terasort").mean_bw_mbps
        / baseline.vssd("terasort").mean_bw_mbps
    )
    print(
        f"\nSSD utilization: {hw_util:.1%} -> {fl_util:.1%} "
        f"({fl_util / hw_util:.2f}x); TeraSort bandwidth {tera_gain:.2f}x; "
        f"YCSB P99 {result.vssd('ycsb').p99_latency_us / 1000:.2f} ms "
        f"(hardware-isolated: {baseline.vssd('ycsb').p99_latency_us / 1000:.2f} ms)"
    )
    print(
        f"gSB activity: {result.gsb_stats.gsbs_created} created, "
        f"{result.gsb_stats.gsbs_harvested} harvested, "
        f"{result.gsb_stats.blocks_offered} blocks offered"
    )


if __name__ == "__main__":
    main()
