"""The whole benchmark in one command, and the A-vs-B comparison of two results.

``PYTHONPATH=src python -m benchmarks.perf --seed S --out FILE`` runs every
workload of ``BENCHMARK.json`` through :mod:`benchmarks.perf.run` — first
untraced (end-to-end metrics), then traced (per-layer metrics) — prints
every metric by name with its unit, and writes all reports plus a manifest
to ``FILE``.

``python -m benchmarks.perf --compare A.json B.json`` prints, per workload
and end-to-end metric, both medians and quartiles, the relative difference
and a verdict against the metric's own bound.  Comparing two results of the
same commit gives the noise floor of this host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from benchmarks.perf.run import (
    ROOT,
    load_benchmark,
    metric_units,
    print_report,
    quartiles,
    run_workload,
)


def git_sha() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None  # a bare checkout, not a repository
    return done.stdout.strip()


def run_suite(seed: int, seconds: float, quick: bool, only: List[str]) -> dict:
    benchmark = load_benchmark()
    workloads: Dict[str, dict] = {}
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    for row in benchmark["workloads"]:
        name = row["name"]
        if only and name not in only:
            continue
        print(f"# {name}: {row['why']}")
        workloads[name] = {}
        for trace in (False, True):
            report = run_workload(name, seed, seconds, trace, quick)
            print_report(report, metric_units(benchmark, trace))
            workloads[name]["traced" if trace else "untraced"] = report
    reports = [r for pair in workloads.values() for r in pair.values()]
    # Each report also carries its rounds, raw per-round walls, set-up
    # samples, and pinned vs observed digest.
    manifest = {
        "git_sha": git_sha(),
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "started_utc": started,
        "env": reports[0]["env"] if reports else {},
        # fleet_shards is the one multi-process workload: "fleet/pool/fork".
        "start_method": next((r["mode"] for r in reports if r["mode"] != "in-process"), None),
        "checks_attempted": sum(r["attempted"] for r in reports),
        "checks_failed": sum(r["failed"] for r in reports),
    }
    return {"manifest": manifest, "workloads": workloads}


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def samples_of(report: dict, metric: str) -> List[float]:
    """The raw samples behind one end-to-end metric of an untraced report."""
    if metric == "round_wall_s_p50":
        return report["round_walls_s"]
    if metric == "work_per_s":
        return [report["work"] / wall for wall in report["round_walls_s"]]
    if metric == "setup_s":
        return report["setups_s"]
    return [report["metrics"][metric]]


def verdict(a: List[float], b: List[float], better: str, bound: float) -> dict:
    """``within`` / ``worse`` / ``unresolved`` for B against A.

    ``unresolved`` means the run-to-run spread (interquartile distance over
    the median, of either side) exceeds the bound, so the medians cannot
    show that nothing changed — unless every B sample beats every A sample.
    """
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / med_a

    def spread(values: List[float]) -> float:
        q = quartiles(values)
        return (q[2] - q[0]) / statistics.median(values) if q else 0.0

    noise = max(spread(a), spread(b))
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if noise > bound and not all_better:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    else:
        word = "within"
    return {"a": med_a, "b": med_b, "worse_by": worse_by, "spread": noise, "verdict": word}


def compare(path_a: str, path_b: str) -> int:
    """Print the comparison table; the number of ``worse`` verdicts."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    metrics = load_benchmark()["end_to_end"]
    worse = 0
    print(f"A = {path_a} ({a['manifest']['git_sha']})  B = {path_b} ({b['manifest']['git_sha']})")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        ra, rb = a["workloads"][name]["untraced"], b["workloads"][name]["untraced"]
        same = "identical" if ra["sha256"] == rb["sha256"] else "DIFFERENT simulated statistics"
        print(f"{name}: digest {ra['sha256'][:8]} vs {rb['sha256'][:8]} ({same}); "
              f"failed checks {ra['failed']}/{ra['attempted']} vs {rb['failed']}/{rb['attempted']}")
        for row in metrics:
            sa, sb = samples_of(ra, row["name"]), samples_of(rb, row["name"])
            v = verdict(sa, sb, row["better"], row["bound"])
            qa, qb = quartiles(sa), quartiles(sb)
            print(
                f"  {row['name']:<18} A {v['a']:.4g} [{_q(qa)}] n={len(sa)}  "
                f"B {v['b']:.4g} [{_q(qb)}] n={len(sb)}  "
                f"worse by {100 * v['worse_by']:+.1f}% (bound {100 * row['bound']:.0f}%, "
                f"spread {100 * v['spread']:.1f}%)  {v['verdict']}"
            )
            worse += v["verdict"] == "worse"
    return worse


def _q(q: Optional[List[float]]) -> str:
    return "n/a" if q is None else f"{q[0]:.4g}..{q[2]:.4g}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write every report and the manifest to this JSON file")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-round budget per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--workload", action="append", default=[],
                        help="run only this workload (repeatable)")
    parser.add_argument("--quick", action="store_true",
                        help="smallest sizes, one round per run (smoke test)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare) else 0
    seconds = args.seconds
    if seconds is None:
        seconds = 0.01 if args.quick else float(load_benchmark()["run_seconds"])
    result = run_suite(args.seed, seconds, args.quick, args.workload)
    manifest = result["manifest"]
    print(f"checks: {manifest['checks_attempted']} attempted, "
          f"{manifest['checks_failed']} failed")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 1 if manifest["checks_failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
