"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — run one policy over a workload collocation and print results.
* ``compare`` — run several policies over the same collocation.
* ``workloads`` — list the workload catalog.
* ``classify`` — synthesize a trace for a workload and classify its type.
* ``pretrain`` — (re)build the cached pre-trained policy.
* ``overheads`` — print the Section 4.7 overhead microbenchmarks.
* ``profile`` — ``run`` with the profiler counters on.
* ``sweep`` — fan a policies × seeds matrix across worker processes.
* ``fleet`` — run N simulated devices, one pool cell each.
* ``adversarial`` — regret-driven scenario search (policy hardening).
* ``lint`` — fleetlint determinism & unit-safety static analysis.
* ``detsan`` — compare determinism-sanitizer traces; localize divergence.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import TYPE_CHECKING, Callable, Optional, Sequence, cast

from repro.config import RLConfig, SSDConfig
from repro.harness import POLICIES, Experiment, run_policy_comparison, snapshots
from repro.parallel.matrix import ExperimentCell, plans_for
from repro.parallel.worker import run_cell
from repro.workloads import WORKLOAD_CATALOG, get_spec

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.metrics import ExperimentResult
    from repro.parallel import SweepResult


def _add_common_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "workloads",
        nargs="+",
        help="workload names to collocate (see 'workloads' command)",
    )
    parser.add_argument("--duration", type=float, default=20.0, help="simulated seconds")
    parser.add_argument(
        "--warmup", type=float, default=6.0, help="seconds excluded from measurement"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--channels", type=int, default=None,
        help="total SSD channels (default: 16, Table 3)",
    )


def _add_pool_run_args(parser: argparse.ArgumentParser) -> None:
    """The flags ``sweep`` and ``fleet`` share: the pool's self-healing
    budget, and what ``_print_pool_totals`` / ``_verify_serial`` read."""
    parser.add_argument(
        "--verify-serial", action="store_true",
        help="re-run serially and assert byte-identical merged telemetry",
    )
    parser.add_argument(
        "--telemetry-out", default=None, help="write merged telemetry bytes here"
    )
    parser.add_argument(
        "--show-profile", action="store_true",
        help="print the merged profiler counters",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=900.0,
        help="terminate a worker silent for this many seconds (hung-worker watchdog)",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="relaunches granted to a crashed or hung worker (0 = fail fast)",
    )


def _config_from(args: argparse.Namespace) -> SSDConfig:
    if args.channels is None:
        return SSDConfig()
    return SSDConfig(num_channels=args.channels)


def _print_result(policy: str, result: "ExperimentResult") -> None:
    print(f"\n== {policy}: SSD utilization {result.avg_utilization:.2%} "
          f"(P95 {result.p95_utilization:.2%})")
    for vssd in result.vssds.values():
        print("  " + vssd.summary_row())
    summary = result.admission_summary()
    if summary:
        print("  " + summary)


def cmd_run(args: argparse.Namespace) -> int:
    """Run one policy over one collocation as one experiment cell.

    ``profile`` is this command with the profiler counters on: it also
    prints them and, under ``--json``, writes them with the wall time.
    """
    import json

    from repro.profiling import format_profile

    profile = args.command == "profile"
    cell = ExperimentCell(
        "+".join(args.workloads),
        tuple(args.workloads),
        args.policy,
        args.seed,
        duration_s=args.duration,
        measure_after_s=args.warmup,
        num_channels=args.channels,
    )
    outcome = run_cell(cell, profile=profile)
    error = outcome.error
    if error is not None:
        if error["type"] == "KeyError":  # an unknown name: no traceback
            print(f"error: {error['message']}", file=sys.stderr)
            return 2
        print(error["traceback"], file=sys.stderr)
        return 1
    _print_result(args.policy, cast("ExperimentResult", outcome.result))
    if profile:
        print()
        print(format_profile(outcome.profile))
    print(f"\n({args.duration:.0f} simulated seconds in {outcome.wall_s:.1f} wall seconds)")
    if profile and args.json:
        payload = {
            "workloads": list(args.workloads),
            "policy": args.policy,
            "seed": args.seed,
            "duration_s": args.duration,
            "wall_s": outcome.wall_s,
            "profile": outcome.profile,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote profile to {args.json}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Run several policies over one collocation."""
    policies = tuple(args.policies.split(",")) if args.policies else POLICIES
    results = run_policy_comparison(
        plans_for(args.workloads),
        policies=policies,
        duration_s=args.duration,
        measure_after_s=args.warmup,
        ssd_config=_config_from(args),
        seed=args.seed,
    )
    for policy, result in results.items():
        _print_result(policy, result)
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Run the scripted fault scenario and report per-phase recovery."""
    from repro.faults import scenario_phases, slowdown_corruption_scenario
    from repro.harness import events_to_csv

    plans = plans_for(args.workloads)
    config = _config_from(args)
    target = plans[0].name
    # Under the default equal-split allocation the first plan owns the
    # leading block of channel ids; the fault lands on its channels.
    channels = list(range(config.num_channels // len(plans)))
    fault_end_s = args.fault_start + args.fault_duration
    faults = slowdown_corruption_scenario(
        target,
        channels,
        slowdown_factor=args.factor,
        fault_start_s=args.fault_start,
        fault_duration_s=args.fault_duration,
        corruption_start_s=args.fault_start + 1.0,
        corruption_duration_s=max(args.fault_duration - 2.0, 1.0),
    )
    experiment = Experiment(
        plans,
        "fleetio",
        ssd_config=config,
        seed=args.seed,
        faults=faults,
        guardrails=args.guardrails,
    )
    label = "fleetio+guardrails" if args.guardrails else "fleetio (raw)"
    started = time.time()
    try:
        result = experiment.run(args.duration, args.warmup)
        _print_result(label, result)

        phases = scenario_phases(
            experiment._measure_start_s, args.fault_start, fault_end_s, args.duration
        )
        print("\nP99 latency by phase (ms):")
        print(f"{'vssd':>14s} {'pre':>9s} {'during':>9s} {'post':>9s}")
        for plan in plans:
            monitor = experiment.monitors[plan.name]
            row = f"{plan.name:>14s}"
            for start_s, end_s in phases.values():
                p99 = monitor.latency_percentile_between(start_s, end_s, 99)
                row += "       n/a" if p99 is None else f" {p99 / 1000.0:9.2f}"
            print(row)
    finally:
        experiment.close()

    events = sorted(
        result.fault_events + result.guardrail_events, key=lambda e: e.time_s
    )
    print("\nFault / guardrail timeline:")
    for event in events:
        detail = f"  {event.detail}" if event.detail else ""
        print(f"  t={event.time_s:7.2f}s  {event.source:>9s}  "
              f"{event.kind}:{event.phase}  {event.target}{detail}")
    if args.events_csv:
        rows = events_to_csv(events, args.events_csv)
        print(f"\nwrote {rows} events to {args.events_csv}")
    print(f"\n({args.duration:.0f} simulated seconds in {time.time() - started:.1f} wall seconds)")
    return 0


def cmd_workloads(_args: argparse.Namespace) -> int:
    """List the workload catalog."""
    print(f"{'name':>15s} {'category':>10s} {'mode':>7s} {'reads':>6s} {'mean IO':>8s}")
    for name in sorted(WORKLOAD_CATALOG):
        spec = get_spec(name)
        print(
            f"{name:>15s} {spec.category:>10s} {spec.mode:>7s} "
            f"{spec.read_ratio:6.0%} {spec.mean_io_pages * 16:7.0f}K"
        )
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    """Classify a workload's synthesized trace (Section 3.4)."""
    from repro.clustering import trace_feature_windows
    from repro.config import CLUSTER_ALPHAS
    from repro.harness import get_classifier
    from repro.sim.random import RandomStreams
    from repro.workloads import synthesize_trace

    classifier = get_classifier()
    # Derive the trace RNG through the same named-stream machinery the
    # harness uses (``workload:<name>``), so `repro classify` and an
    # experiment at the same seed sample identical traces.
    rng = RandomStreams(args.seed).get(f"workload:{args.workload}")
    trace = synthesize_trace(get_spec(args.workload), rng, 5000)
    features = trace_feature_windows(trace, 5000)[0]
    label = classifier.predict_label(features[None, :])
    alpha = CLUSTER_ALPHAS.get(label, RLConfig().unified_alpha)
    print(f"workload:  {args.workload}")
    print(f"features:  read={features[0]:.1f} MB/s write={features[1]:.1f} MB/s "
          f"entropy={features[2]:.3f} size={features[3]:.1f} KB")
    print(f"cluster:   {label or 'unknown (unified reward)'}")
    print(f"alpha:     {alpha}")
    return 0


def cmd_pretrain(args: argparse.Namespace) -> int:
    """(Re)build the cached pre-trained policy."""
    from repro.harness import get_pretrained_net
    from repro.profiling import PROFILER, format_profile

    started = time.time()
    with PROFILER.enabled_scope():
        net = get_pretrained_net(
            iterations=args.iterations,
            seed=args.seed,
            use_disk_cache=not args.fresh,
            envs=args.envs,
            workers=args.workers,
        )
        print(
            f"policy ready: {net.num_parameters()} parameters "
            f"({time.time() - started:.1f} s, engine="
            f"{'vectorized x' + str(args.envs) if args.envs > 1 else 'scalar'}, "
            f"workers={args.workers or 1})"
        )
        if args.profile:
            print(format_profile(PROFILER.snapshot()))
    return 0


def cmd_overheads(_args: argparse.Namespace) -> int:
    """Print Section 4.7-style overhead microbenchmarks."""
    import numpy as np

    from repro.harness import get_pretrained_net
    from repro.rl import CategoricalPolicy
    from repro.virt import StorageVirtualizer
    from repro.virt.actions import HarvestAction

    net = get_pretrained_net()
    policy = CategoricalPolicy(net)
    state = np.zeros(RLConfig().state_dim)
    started = time.perf_counter()
    for _ in range(1000):
        policy.act_greedy(state)
    inference_ms = (time.perf_counter() - started)
    print(f"inference:        {inference_ms:.3f} ms per decision (paper: 1.1 ms)")

    virt = StorageVirtualizer()
    a = virt.create_vssd("a", list(range(8)))
    virt.create_vssd("b", list(range(8, 16)))
    for _ in range(1000):
        virt.admission.submit(HarvestAction(a.vssd_id, 1000.0))
    started = time.perf_counter()
    virt.admission.process_batch()
    print(
        f"admission batch:  {(time.perf_counter() - started) * 1000:.2f} ms "
        "per 1,000 actions (paper: 0.8 ms)"
    )
    print(f"model footprint:  {net.size_bytes() / (1 << 20):.2f} MB, "
          f"{net.num_parameters()} parameters (paper: 2.2 MB, ~9K)")
    return 0


def _print_pool_totals(
    args: argparse.Namespace,
    result: "SweepResult",
    totals: str,
    note: str = "",
    telemetry_name: str = "telemetry",
) -> None:
    """The totals + sha line (then ``note``), ``--show-profile`` and
    ``--telemetry-out``."""
    from repro.profiling import format_profile

    print(
        f"\n{totals}  telemetry: {len(result.telemetry)} bytes "
        f"(sha256 {result.telemetry_digest[:16]})"
    )
    if note:
        print(note)
    if args.show_profile:
        print()
        print(format_profile(result.profile))
    if args.telemetry_out:
        with open(args.telemetry_out, "wb") as handle:
            handle.write(result.telemetry)
        print(f"wrote merged {telemetry_name} to {args.telemetry_out}")


def _print_outcomes(result: "SweepResult") -> None:
    """One row per cell (status, wall, utilization), then each failure."""
    print(f"\n{'cell':>32s} {'status':>8s} {'wall(s)':>8s} {'util':>7s}")
    for outcome in result.outcomes:
        if hasattr(outcome, "ok") and outcome.ok:
            print(
                f"{outcome.cell.cell_id:>32s} {'ok':>8s} "
                f"{outcome.wall_s:8.1f} "
                f"{outcome.result.avg_utilization:7.1%}"
            )
        else:
            print(f"{outcome.cell.cell_id:>32s} {'FAILED':>8s}")
    for failure in result.failures:
        print(f"  {failure.describe()}")


def _verify_serial(
    args: argparse.Namespace,
    result: "SweepResult",
    rerun_serial: Callable[[], "SweepResult"],
    versus: str,
) -> int:
    """Under ``--verify-serial`` re-run serially and require byte-equal
    telemetry; returns the command's exit code either way."""
    if args.verify_serial:
        serial = rerun_serial()
        match = serial.telemetry == result.telemetry
        speedup = serial.wall_s / result.wall_s if result.wall_s else 0.0
        print(
            f"serial wall: {serial.wall_s:.1f}s  speedup: {speedup:.2f}x  "
            f"telemetry byte-equal: {match}"
        )
        if not match:
            print(f"error: serial and {versus} telemetry diverge", file=sys.stderr)
            return 1
    return 0 if result.ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    """Fan a policies × seeds matrix across worker processes."""
    from repro.parallel import (
        ExperimentMatrix,
        ParallelRunner,
        run_serial,
        warm_policy_cache,
    )

    policies = tuple(args.policies.split(",")) if args.policies else POLICIES
    seeds = tuple(int(s) for s in args.seeds.split(","))
    matrix = ExperimentMatrix.from_workloads(
        args.workloads,
        policies,
        seeds=seeds,
        duration_s=args.duration,
        measure_after_s=args.warmup,
        num_channels=args.channels,
    )
    if args.detsan:
        # Set before any worker forks so every child records checkpoints.
        os.environ["REPRO_DETSAN"] = "1"
    if args.snapshots == "off":
        # Like --detsan: exported before any worker starts so every pool
        # worker resolves the same flag.  "on" is the default already.
        os.environ["REPRO_SNAPSHOTS"] = "off"
    cells = matrix.cells()
    warmed = warm_policy_cache(cells)
    if warmed:
        print(f"policy cache ready ({len(warmed)} artifacts)")
    runner = ParallelRunner(
        workers=args.workers,
        join_timeout_s=args.cell_timeout,
        max_attempts=args.retries + 1,
    )
    # Resolved in the parent, so a bad REPRO_SNAPSHOTS fails the command
    # on stderr here rather than every cell in a worker.
    snapshots_on = snapshots.snapshots_enabled()
    print(
        f"sweep: {len(cells)} cells "
        f"({len(policies)} policies x {len(seeds)} seeds), "
        f"{runner.workers} workers [pool/{runner.start_method}], "
        f"snapshots {'on' if snapshots_on else 'off'}"
    )
    sweep = runner.run(cells)
    _print_outcomes(sweep)
    _print_pool_totals(args, sweep, f"parallel wall: {sweep.wall_s:.1f}s")
    if args.detsan:
        from repro.analysis.detsan import write_traces

        paths = write_traces(sweep.detsan_traces(), args.detsan)
        print(f"wrote {len(paths)} detsan traces to {args.detsan}")
    return _verify_serial(args, sweep, lambda: run_serial(cells), "parallel")


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run N simulated devices, one pool cell each."""
    from repro.fleet import FleetShardRunner, build_fleet, run_fleet_serial

    specs = build_fleet(
        args.devices,
        workloads=args.workloads,
        policy=args.policy,
        base_seed=args.seed,
        duration_s=args.duration,
        measure_after_s=args.warmup,
        num_channels=args.channels,
    )
    runner = FleetShardRunner(
        workers=args.workers,
        join_timeout_s=args.cell_timeout,
        max_attempts=args.retries + 1,
    )
    fleet = runner.run(specs)
    print(
        f"fleet: {len(specs)} devices x {args.policy}, "
        f"{fleet.workers} workers [{fleet.mode}]"
    )
    _print_outcomes(fleet)
    counters = fleet.profile.get("counters", {})
    _print_pool_totals(
        args,
        fleet,
        f"fleet wall: {fleet.wall_s:.1f}s  {len(specs) / fleet.wall_s:.2f} devices/s",
        note=(
            f"state plane: snapshot.hits={counters.get('snapshot.hits', 0)} "
            f"snapshot.misses={counters.get('snapshot.misses', 0)}"
        ),
        telemetry_name="fleet telemetry",
    )
    return _verify_serial(args, fleet, lambda: run_fleet_serial(specs), "pooled")


def cmd_adversarial(args: argparse.Namespace) -> int:
    """Regret-driven adversarial scenario search (PAIRED-style)."""
    import json

    from repro.adversarial import (
        adversarial_search,
        make_cell,
        replay_genome,
        resolve_protagonist,
        write_cell,
    )

    protagonist = {"kind": args.protagonist}
    if args.protagonist == "tiny":
        protagonist.update({"seed": args.tiny_seed, "iterations": args.tiny_iterations})
    started = time.time()
    result = adversarial_search(
        protagonist,
        rounds=args.rounds,
        population=args.population,
        seed=args.seed,
        workers=args.workers,
        antagonist_iters=args.antagonist_iters,
        eval_episodes=args.eval_episodes,
        envs=args.envs,
        episode_windows=args.episode_windows,
        verbose=True,
    )
    print(
        f"\nsearch: {result.evaluations} evaluations over {result.rounds} rounds "
        f"({result.failures} failed) in {time.time() - started:.1f}s"
    )
    top = result.top(args.top)
    print(f"\n{'genome':>14s} {'regret':>9s} {'p-score':>9s} {'a-score':>9s} {'p-viol':>8s}")
    for candidate in top:
        print(
            f"{candidate.genome.digest:>14s} {candidate.regret:9.4f} "
            f"{candidate.protagonist_score:9.4f} {candidate.antagonist_score:9.4f} "
            f"{candidate.protagonist_violation:8.4f}"
        )
    if args.emit_cells:
        params = resolve_protagonist(protagonist)
        for candidate in top:
            replay = replay_genome(
                candidate.genome,
                params,
                seed=args.replay_seed,
                episodes=args.replay_episodes,
            )
            cell = make_cell(
                candidate.genome,
                protagonist,
                replay,
                seed=args.replay_seed,
                episodes=args.replay_episodes,
                provenance={
                    "search_seed": args.seed,
                    "rounds": args.rounds,
                    "population": args.population,
                    "regret": round(candidate.regret, 6),
                    "protagonist_score": round(candidate.protagonist_score, 6),
                    "antagonist_score": round(candidate.antagonist_score, 6),
                },
            )
            path = write_cell(cell, args.emit_cells)
            print(f"wrote {path} (digest {replay.digest[:16]}...)")
    if args.json:
        payload = {
            "seed": args.seed,
            "rounds": result.rounds,
            "evaluations": result.evaluations,
            "failures": result.failures,
            "top": [
                {
                    "digest": c.genome.digest,
                    "regret": c.regret,
                    "genome": c.genome.to_dict(),
                }
                for c in top
            ],
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote search summary to {args.json}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run fleetlint over the repo (or the given paths)."""
    from repro.analysis import run_lint

    if args.list_rules:
        from repro.analysis.registry import all_rules

        for rule in all_rules():
            print(f"{rule.name:>22s}  [{rule.severity}]  {rule.description}")
        return 0
    return run_lint(
        args.paths,
        output_format=args.format,
        strict=args.strict,
        rules=args.rules.split(",") if args.rules else None,
        verbose=args.verbose,
    )


def cmd_detsan(args: argparse.Namespace) -> int:
    """Compare two determinism-sanitizer traces."""
    from repro.analysis.detsan import DetsanTrace, compare

    path_a, path_b = args.compare
    trace_a = DetsanTrace.load(path_a)
    trace_b = DetsanTrace.load(path_b)
    label_a = trace_a.label or path_a
    label_b = trace_b.label or path_b
    divergence = compare(trace_a, trace_b)
    if divergence is None:
        windows = len(trace_a.windows())
        print(
            f"identical: {label_a} == {label_b} "
            f"({windows} windows, {len(trace_a.checkpoints)} checkpoints)"
        )
        return 0
    print(f"comparing {label_a} vs {label_b}")
    print(divergence.render())
    return 1


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FleetIO reproduction: multi-tenant SSD management with RL",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one policy over a collocation")
    _add_common_run_args(run)
    run.add_argument(
        "--policy", default="fleetio",
        choices=list(POLICIES) + ["mixed", "fleetio-mixed"],
    )
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="run several policies")
    _add_common_run_args(compare)
    compare.add_argument(
        "--policies", default=None,
        help="comma-separated subset (default: all five)",
    )
    compare.set_defaults(func=cmd_compare)

    faults = sub.add_parser(
        "faults",
        help="run a fault scenario (channel slowdown + agent corruption)",
    )
    faults.add_argument(
        "workloads",
        nargs="*",
        default=["ycsb", "terasort"],
        help="workloads to collocate; the first is the fault target",
    )
    faults.add_argument("--duration", type=float, default=30.0, help="simulated seconds")
    faults.add_argument(
        "--warmup", type=float, default=6.0, help="seconds excluded from measurement"
    )
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument(
        "--channels", type=int, default=None,
        help="total SSD channels (default: 16, Table 3)",
    )
    faults.add_argument(
        "--fault-start", type=float, default=12.0, help="fault onset (seconds)"
    )
    faults.add_argument(
        "--fault-duration", type=float, default=6.0, help="fault length (seconds)"
    )
    faults.add_argument(
        "--factor", type=float, default=6.0, help="channel slowdown factor"
    )
    faults.add_argument(
        "--guardrails",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="enable/disable the guardrail layer (--no-guardrails = raw)",
    )
    faults.add_argument(
        "--events-csv", default=None, help="export the event timeline as CSV"
    )
    faults.set_defaults(func=cmd_faults)

    workloads = sub.add_parser("workloads", help="list the workload catalog")
    workloads.set_defaults(func=cmd_workloads)

    classify = sub.add_parser("classify", help="classify a workload's type")
    classify.add_argument("workload")
    classify.add_argument("--seed", type=int, default=0)
    classify.set_defaults(func=cmd_classify)

    pretrain = sub.add_parser("pretrain", help="(re)build the cached policy")
    pretrain.add_argument("--iterations", type=int, default=600)
    pretrain.add_argument("--seed", type=int, default=7, help="base seed of the seed search")
    pretrain.add_argument(
        "--envs", type=int, default=1,
        help="lockstep environments per rollout round (1 = scalar reference)",
    )
    pretrain.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the seed search (default: serial)",
    )
    pretrain.add_argument("--fresh", action="store_true", help="ignore the disk cache")
    pretrain.add_argument(
        "--profile", action="store_true",
        help="print the profiler counters (windows, transitions, updates)",
    )
    pretrain.set_defaults(func=cmd_pretrain)

    overheads = sub.add_parser("overheads", help="overhead microbenchmarks (S 4.7)")
    overheads.set_defaults(func=cmd_overheads)

    profile = sub.add_parser(
        "profile", help="run one policy with the profiler counters on"
    )
    _add_common_run_args(profile)
    profile.add_argument(
        "--policy", default="fleetio",
        choices=list(POLICIES) + ["mixed", "fleetio-mixed"],
    )
    profile.add_argument("--json", default=None, help="also write the counters as JSON")
    profile.set_defaults(func=cmd_run)

    sweep = sub.add_parser(
        "sweep", help="fan a policies x seeds matrix across worker processes"
    )
    _add_common_run_args(sweep)
    sweep.add_argument(
        "--policies", default=None,
        help="comma-separated subset (default: all five)",
    )
    sweep.add_argument(
        "--seeds", default="0",
        help="comma-separated seeds, one cell per (policy, seed)",
    )
    sweep.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: cores - 1)",
    )
    _add_pool_run_args(sweep)
    sweep.add_argument(
        "--detsan", default=None, metavar="DIR",
        help="record determinism-sanitizer checkpoints and write per-cell "
             "traces here (implies REPRO_DETSAN=1 in every worker)",
    )
    sweep.add_argument(
        "--snapshots", default="on", choices=("on", "off"),
        help="reuse warm-state snapshots to skip device build+warm on "
             "repeat cells (off = always cold build, the escape hatch)",
    )
    sweep.set_defaults(func=cmd_sweep)

    fleet = sub.add_parser(
        "fleet",
        help="run N simulated devices, one cell each, over the worker pool",
    )
    fleet.add_argument(
        "workloads", nargs="*", default=["ycsb", "terasort"],
        help="workload collocation per device (default: ycsb terasort)",
    )
    fleet.add_argument(
        "--devices", type=int, default=8, help="fleet size (one SSD each)"
    )
    fleet.add_argument(
        "--workers", type=int, default=None,
        help="pool worker processes (default: cores - 1)",
    )
    fleet.add_argument(
        "--policy", default="adaptive",
        help="per-device policy (default: adaptive)",
    )
    fleet.add_argument("--seed", type=int, default=42, help="base seed (device i gets seed+i)")
    fleet.add_argument("--duration", type=float, default=4.0, help="simulated seconds per device")
    fleet.add_argument(
        "--warmup", type=float, default=1.0, help="seconds excluded from measurement"
    )
    fleet.add_argument(
        "--channels", type=int, default=None,
        help="total SSD channels per device (default: 16, Table 3)",
    )
    _add_pool_run_args(fleet)
    fleet.set_defaults(func=cmd_fleet)

    adversarial = sub.add_parser(
        "adversarial",
        help="regret-driven scenario search for policy hardening (PAIRED-style)",
    )
    adversarial.add_argument("--rounds", type=int, default=2)
    adversarial.add_argument(
        "--population", type=int, default=4, help="scenario genomes per round"
    )
    adversarial.add_argument("--seed", type=int, default=0, help="search seed")
    adversarial.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for candidate evaluation (default: serial)",
    )
    adversarial.add_argument(
        "--protagonist", default="tiny", choices=("tiny", "pretrained"),
        help="policy under test: tiny CI policy or the full pre-trained artifact",
    )
    adversarial.add_argument("--tiny-seed", type=int, default=7)
    adversarial.add_argument("--tiny-iterations", type=int, default=2)
    adversarial.add_argument(
        "--antagonist-iters", type=int, default=2,
        help="PPO fine-tune iterations for the scenario specialist",
    )
    adversarial.add_argument(
        "--eval-episodes", type=int, default=2,
        help="greedy evaluation episodes per candidate",
    )
    adversarial.add_argument(
        "--envs", type=int, default=2,
        help="lockstep env copies per antagonist rollout round",
    )
    adversarial.add_argument(
        "--episode-windows", type=int, default=16,
        help="decision windows per scenario episode",
    )
    adversarial.add_argument(
        "--top", type=int, default=2, help="top-regret scenarios to report/emit"
    )
    adversarial.add_argument(
        "--emit-cells", default=None, metavar="DIR",
        help="write the top scenarios as replayable regression cells here",
    )
    adversarial.add_argument(
        "--replay-seed", type=int, default=2024,
        help="seed recorded in emitted regression cells",
    )
    adversarial.add_argument(
        "--replay-episodes", type=int, default=2,
        help="episodes per emitted regression-cell replay",
    )
    adversarial.add_argument(
        "--json", default=None, help="also write the search summary as JSON"
    )
    adversarial.set_defaults(func=cmd_adversarial)

    lint = sub.add_parser(
        "lint", help="fleetlint determinism & unit-safety static analysis"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument(
        "--strict", action="store_true",
        help="warnings also fail the build (what CI runs)",
    )
    lint.add_argument(
        "--rules", default=None, help="comma-separated subset of rules to run"
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    lint.add_argument(
        "-v", "--verbose", action="store_true",
        help="also show suppressed findings",
    )
    lint.set_defaults(func=cmd_lint)

    detsan = sub.add_parser(
        "detsan",
        help="compare determinism-sanitizer traces; localize the first "
             "divergent (subsystem, window)",
    )
    detsan.add_argument(
        "--compare", nargs=2, required=True, metavar=("A", "B"),
        help="two trace files written by 'sweep --detsan'",
    )
    detsan.set_defaults(func=cmd_detsan)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
