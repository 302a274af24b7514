#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics (``BENCHMARK.json`` command).

``run.py --workload NAME --seed N --seconds T --trace 0|1`` measures one
workload and prints, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

* ``--trace 0`` gives the end-to-end metrics.  The workload is set up in
  ``SETUP_REPEATS`` fresh child interpreters, one at a time (``setup_s`` is
  the median: child start -> end of the unscored warm-up round); the last
  child then runs timed rounds for ``--seconds`` with the profiler and the
  tracer off, and the median round is reported.
* ``--trace 1`` gives the per-layer metrics: one untraced child for the
  baseline round time, then one child with the span tracer installed.

Every child gets ``OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1``, no ``REPRO_*``
knobs, and a private ``REPRO_CACHE_DIR`` under ``.bench_build/`` in the
checkout, so nothing outside the checkout is read or written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.perf.tracer import ROOT_SPAN, SPAN_NAMES, Tracer  # noqa: E402

#: Fresh-interpreter set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Timed rounds never fall below this, however short ``--seconds`` is.
MIN_ROUNDS = 5
#: ... and in both children of a traced run (per-layer shares need fewer).
MIN_ROUNDS_TRACED = 3

READY = "@ready"
RESULT = "@result "

#: Profiler counter -> per-layer metric (per round).
COUNTER_METRICS = {
    "sim.events": "sim.engine.events",
    "ftl.io_requests": "ssd.ftl.io_requests",
    "ftl.gc_blocks_erased": "ssd.ftl.gc_blocks_erased",
    "rl.batched_decisions": "rl.batched_decisions",
    "pretrain.transitions": "rl.transitions",
    "snapshot.hits": "harness.snapshots.hits",
    "snapshot.misses": "harness.snapshots.misses",
    "arena.hits": "fleet.arena.hits",
    "ipc.bytes_saved": "fleet.ipc.bytes_saved",
    "fleet.ring_bytes": "fleet.ring.bytes",
}

#: Per-layer metrics a workload reads from public result fields
#: (``RoundResult.extra``); 0 on workloads that have no such field.
RESULT_METRICS = (
    "ssd.ftl.write_amplification",
    "fleet.arena.payload_bytes",
    "fleet.leaked_segments",
)


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_expectations() -> dict:
    return json.loads((HERE / "expectations.json").read_text())


def quartiles(values: List[float]) -> Optional[List[float]]:
    """``[q1, median, q3]``, or None with fewer than two samples."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else None


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check_rounds(
    records: List[dict], extra: Dict[str, bool], pinned: Optional[str]
) -> List[str]:
    """Names of every check made, failed ones prefixed ``FAILED ``.

    ``records`` is the warm-up round followed by the timed rounds, each
    ``{"ok", "sha256", "bytes"}``.  A check is: the round's outcome is ok;
    its telemetry is non-empty and byte-identical to the first round's;
    each workload-specific check in ``extra``; and, when the workload has
    a pinned digest (seed 0, full size), the telemetry equals it.
    """
    first = records[0]["sha256"]
    checks = {}
    for i, record in enumerate(records):
        checks[f"round {i} outcome ok"] = bool(record["ok"])
        checks[f"round {i} telemetry non-empty and identical to round 0"] = (
            record["bytes"] > 0 and record["sha256"] == first
        )
    checks.update(extra)
    if pinned is not None:
        checks[f"telemetry sha256 equals pinned {pinned[:8]}"] = first == pinned
    return [name if passed else f"FAILED {name}" for name, passed in checks.items()]


def record_of(result) -> dict:
    return {
        "ok": result.ok,
        "sha256": hashlib.sha256(result.telemetry).hexdigest(),
        "bytes": len(result.telemetry),
    }


# ----------------------------------------------------------------------
# Child: one fresh interpreter = one set-up (+ optionally timed rounds)
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    tracer = None
    if args.trace:
        # Before the workload module is imported and long before anything
        # is constructed, so every captured bound method is a wrapped one.
        tracer = Tracer()
        tracer.install()
    from benchmarks.perf.workloads import get_workload

    workload = get_workload(args.workload)
    workload.prepare(args.seed, args.quick)
    run_round = workload.round
    if tracer is not None:
        run_round = tracer.wrap(ROOT_SPAN, run_round)
    traced = tracer is not None
    first = run_round(traced)  # warm-up: caches fill, lazy set-up finishes; unscored
    print(READY, flush=True)
    if args.seconds <= 0:
        return 0

    walls: List[float] = []
    records = [record_of(first)]
    counters: Dict[str, int] = {}
    cell_wall_s = 0.0
    last = first
    if traced:
        tracer.active = True
    deadline = time.perf_counter() + args.seconds
    while len(walls) < args.min_rounds or time.perf_counter() < deadline:
        started = time.perf_counter()
        last = run_round(traced)
        walls.append(time.perf_counter() - started)
        records.append(record_of(last))
        cell_wall_s += last.cell_wall_s
        for name, value in last.counters.items():
            counters[name] = counters.get(name, 0) + value
    if traced:
        tracer.active = False

    pinned = None
    if args.seed == 0 and not args.quick:
        pinned = load_expectations()["pinned_sha256_seed0"].get(workload.name)
    checks = check_rounds(records, workload.extra_checks(first), pinned)
    usage = [resource.getrusage(who).ru_maxrss for who in
             (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    import numpy

    report = {
        "walls_s": walls,
        "checks": checks,
        "sha256": records[0]["sha256"],
        "pinned_sha256": pinned,
        "work": workload.work,
        "work_unit": workload.work_unit,
        "workers": workload.workers,
        "peak_rss_mb": sum(usage) / 1024.0,  # ru_maxrss is KiB on Linux
        "mode": workload.mode,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        },
    }
    if traced:
        report.update(
            spans=tracer.stats,
            missing=tracer.missing,
            counters=counters,
            cells=last.cells,
            cell_wall_s=cell_wall_s,
            extra=last.extra,
        )
    print(RESULT + json.dumps(report), flush=True)
    return 0


def run_child(
    scratch: str, workload: str, seed: int, seconds: float, traced: bool, quick: bool,
    min_rounds: int = 0,
) -> dict:
    """Start one child, wait for it, return its report plus ``setup_s``.

    ``seconds <= 0`` makes a set-up-only child: it exits after the warm-up.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_CACHE_DIR=tempfile.mkdtemp(dir=scratch),
    )
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(int(traced)),
        "--min-rounds", str(min_rounds),
    ] + (["--quick"] if quick else [])
    report: dict = {}
    started = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        for line in proc.stdout:
            if line.startswith(READY):
                report["setup_s"] = time.perf_counter() - started
            elif line.startswith(RESULT):
                report.update(json.loads(line[len(RESULT):]))
            else:
                sys.stderr.write(line)
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or "setup_s" not in report:
        raise RuntimeError(f"{workload}: child exited {proc.returncode} without a result")
    return report


# ----------------------------------------------------------------------
# Parent: assemble one workload's report
# ----------------------------------------------------------------------
def layer_metrics(traced: dict, base: dict) -> Dict[str, Optional[float]]:
    """Per-layer metrics, per round, from the traced child's aggregates.

    A span whose boundary no longer exists reads ``None``.
    """
    rounds = len(traced["walls_s"])
    spans = traced["spans"]
    out: Dict[str, Optional[float]] = {}
    for name in SPAN_NAMES:
        stat = spans.get(name)
        out[f"{name}.calls"] = None if stat is None else stat[0] / rounds
        out[f"{name}.self_s"] = None if stat is None else stat[2] / rounds / 1e9
    if traced["workers"] > 1:
        # Cells ran in pool workers, where the tracer is off: their spans
        # come from the public CellOutcome.wall_s instead.
        out["parallel.worker.run_cell.calls"] = float(traced["cells"])
        out["parallel.worker.run_cell.self_s"] = traced["cell_wall_s"] / rounds

    def self_s(name: str) -> float:
        return out.get(f"{name}.self_s") or 0.0

    def calls(name: str) -> float:
        return out.get(f"{name}.calls") or 0.0

    _, root_total_ns, root_self_ns = spans[ROOT_SPAN]
    root_s = root_total_ns / rounds / 1e9
    for counter, metric in COUNTER_METRICS.items():
        out[metric] = traced["counters"].get(counter, 0) / rounds
    for metric in RESULT_METRICS:
        out[metric] = traced["extra"].get(metric, 0.0)
    base_wall = statistics.median(base["walls_s"])
    events = out["sim.engine.events"]
    out["sim.engine.ns_per_event"] = base_wall * 1e9 / events if events else 0.0
    submits = calls("sched.dispatcher.submit")
    out["sched.policy.selects_per_submit"] = (
        calls("sched.policy.select") / submits if submits else 0.0
    )
    out["ssd.ftl.gc_share"] = (
        self_s("ssd.ftl.run_gc") + self_s("ssd.ftl.recycle_region")
    ) / root_s
    lookups = out["harness.snapshots.hits"] + out["harness.snapshots.misses"]
    out["harness.snapshots.hit_ratio"] = (
        out["harness.snapshots.hits"] / lookups if lookups else 0.0
    )
    out["parallel.pool.busy_frac"] = (
        traced["cell_wall_s"] / rounds / (traced["workers"] * root_s)
    )
    out["trace.overhead_frac"] = statistics.median(traced["walls_s"]) / base_wall - 1.0
    out["trace.unattributed_frac"] = root_self_ns / root_total_ns
    return out


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, quick: bool = False
) -> dict:
    """Measure one workload; the full report the suite stores."""
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    rounds = 1 if quick else (MIN_ROUNDS_TRACED if trace else MIN_ROUNDS)
    with tempfile.TemporaryDirectory(dir=build, prefix="perf-") as scratch:
        if trace:
            base = run_child(scratch, workload, seed, seconds / 2.0, False, quick, rounds)
            measured = run_child(scratch, workload, seed, seconds, True, quick, rounds)
            metrics = layer_metrics(measured, base)
            checks = base["checks"] + measured["checks"]
            same = base["sha256"] == measured["sha256"]
            checks.append(("" if same else "FAILED ") + "tracing leaves the digest unchanged")
            setups = [base["setup_s"], measured["setup_s"]]
        else:
            setups = [
                run_child(scratch, workload, seed, 0.0, False, quick)["setup_s"]
                for _ in range(0 if quick else SETUP_REPEATS - 1)
            ]
            measured = run_child(scratch, workload, seed, seconds, False, quick, rounds)
            setups.append(measured["setup_s"])
            wall = statistics.median(measured["walls_s"])
            metrics = {
                "round_wall_s_p50": wall,
                "work_per_s": measured["work"] / wall,
                "peak_rss_mb": measured["peak_rss_mb"],
                "setup_s": statistics.median(setups),
            }
            checks = measured["checks"]
    failures = [name for name in checks if name.startswith("FAILED ")]
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "quick": quick,
        "seconds": seconds,
        "correct": not failures,
        "attempted": len(checks),
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "rounds": len(measured["walls_s"]),
        "round_walls_s": measured["walls_s"],
        "setups_s": setups,
        "work": measured["work"],
        "work_unit": measured["work_unit"],
        "sha256": measured["sha256"],
        "pinned_sha256": measured["pinned_sha256"],
        "missing_boundaries": measured.get("missing", []),
        "mode": measured["mode"],
        "env": measured["env"],
    }


def print_report(report: dict, units: Dict[str, str]) -> None:
    """Every metric by name with its unit, then the round statistics."""
    name = report["workload"]
    print(f"== {name}  seed={report['seed']}  trace={report['trace']}  "
          f"work/round={report['work']:g} {report['work_unit']}")
    for boundary in report["missing_boundaries"]:
        print(f"WARNING: layer boundary {boundary} no longer exists; its metrics are null")
    for metric, value in report["metrics"].items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name}.{metric} = {shown} {units.get(metric, '')}")
    spread = quartiles(report["round_walls_s"])
    print(f"round wall: n={report['rounds']} median="
          f"{statistics.median(report['round_walls_s']):.4f}s quartiles="
          + ("n/a" if spread is None else f"{spread[0]:.4f}/{spread[2]:.4f}s")
          + " (n is too small for a tail percentile)")
    print(f"telemetry_sha256 = {report['sha256']}"
          + (f"  (pinned {report['pinned_sha256'][:8]})" if report["pinned_sha256"] else ""))
    print(f"checks: {report['attempted']} attempted, {report['failed']} failed")
    for failure in report["failures"]:
        print(f"  {failure}")


def metric_units(benchmark: dict, trace: bool) -> Dict[str, str]:
    rows = benchmark["per_layer" if trace else "end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def contract_line(report: dict, units: Dict[str, str]) -> str:
    """The driver's last line: exactly the declared metrics, numbers only."""
    metrics = {
        # A vanished boundary reads 0 here (the driver wants numbers); the
        # warning above and the suite's report say null.
        name: {"value": report["metrics"][name] or 0.0, "unit": unit}
        for name, unit in units.items()
    }
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-round budget (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smallest sizes, one round (smoke test)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--min-rounds", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    benchmark = load_benchmark()
    if args.workload not in [row["name"] for row in benchmark["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = 0.01 if args.quick else float(benchmark["run_seconds"])
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    units = metric_units(benchmark, bool(args.trace))
    print_report(report, units)
    print(contract_line(report, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
