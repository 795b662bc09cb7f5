"""Run the adicke benchmark and print its result.

    python3 perfbench/run.py --workload full_scan --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 3      # every listed workload
    python3 perfbench/run.py --workload cs_sweep,cs_sweep_pool --seed 0

Each workload runs in fresh child processes of its own (child.py), so its
peak RSS and CPU time are its own.  With ``--trace 0`` the set-up time is the
median wall time of 9 fresh processes that import adicke with its CLI and
make one tiny evaluation (probe.py); the probes run in groups before, between
and after the workload's children, so they sample the whole run.  Per
workload one line names every metric with its unit; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The benchmark never sets
thread variables or CPU affinity: the child inherits the caller's
environment as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".bench_work")
CHILD_PROCESSES = 2
#: Set-up probes per group; one group runs before each child and one after
#: the last, so an untraced run makes 9 probes of about 0.7 s each.
PROBES_PER_GROUP = 3
#: Runs outside BENCHMARK.json's list but selectable by name.
EXTRA_WORKLOADS = ("cs_sweep_pool",)


class BenchError(RuntimeError):
    pass


def _run(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)


def setup_probes(count: int) -> list[float]:
    """Wall times of ``count`` fresh set-up processes (probe.py), one after another."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        done = _run([sys.executable, os.path.join(HERE, "probe.py")])
        samples.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{done.stderr}")
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Passes of one workload from fresh child processes, pooled into one result.

    Pass times vary more between processes than within one, and the first
    pass of a process is the slowest, so a run splits its time over
    CHILD_PROCESSES children and reports medians over all their passes.  In
    a traced run the last child runs under the tracer: it gives the layer
    figures, and its median pass time minus that of the untraced children is
    the tracing overhead.
    """
    runs = []
    probes = []
    for k in range(CHILD_PROCESSES):
        if not trace:
            probes += setup_probes(PROBES_PER_GROUP)
        traced = int(trace and k == CHILD_PROCESSES - 1)
        work_dir = os.path.join(WORK_ROOT, f"{name}-trace{traced}-{k}")
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(work_dir)
        done = _run([sys.executable, os.path.join(HERE, "child.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds / CHILD_PROCESSES),
                     "--trace", str(traced), "--work-dir", work_dir])
        if done.returncode != 0:
            raise BenchError(f"workload {name} exited with {done.returncode}:\n{done.stderr}")
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    passes = [p for r in runs for p in r["passes"]]
    timed = [p for p in passes if not p["traced"]]
    result = {
        "env": runs[0]["env"],
        "wall_s": statistics.median(p["wall_s"] for p in timed),
        "cpu_s": statistics.median(p["cpu_s"] for p in timed),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]],
        "csv_sha256": sorted({d for r in runs for d in r["csv_sha256"]}),
    }
    if trace:
        traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
        result["layers"] = runs[-1]["layers"]
        result["layers"]["trace.overhead_s"] = traced_wall - result["wall_s"]
    else:
        result["setup_s"] = statistics.median(probes + setup_probes(PROBES_PER_GROUP))
    return result


def metric_values(result: dict, spec: list[dict], trace: int) -> dict:
    source = result["layers"] if trace else result
    return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in spec}


def main() -> int:
    parser = argparse.ArgumentParser(description="Run the adicke benchmark.")
    parser.add_argument("--workload", required=True,
                        help="a workload name, a comma-separated list, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "adicke", "__init__.py")):
        print(f"no adicke sources under {os.path.join(ROOT, 'src')}; nothing to measure",
              file=sys.stderr)
        return 2
    with open(bench_path, encoding="utf-8") as handle:
        bench = json.load(handle)
    listed = [w["name"] for w in bench["workloads"]]
    names = listed if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in listed and n not in EXTRA_WORKLOADS]
    if unknown:
        print(f"unknown workload(s) {unknown}; choose from {listed + list(EXTRA_WORKLOADS)}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]

    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, seconds, args.trace)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1

    problems = {name: list(r["failures"]) for name, r in results.items()}
    for name, r in results.items():
        if len(r["csv_sha256"]) > 1:
            problems[name].append("CSV bytes differ between passes")
    if "cs_sweep" in results and "cs_sweep_pool" in results:
        if results["cs_sweep"]["csv_sha256"] != results["cs_sweep_pool"]["csv_sha256"]:
            problems["cs_sweep_pool"].append("CSV bytes differ from cs_sweep (workers=1)")

    metrics = {}
    for name, r in results.items():
        values = metric_values(r, spec, args.trace)
        print(json.dumps({"workload": name, "env": r["env"]}))
        print(f"{name}: " + " | ".join(f"{k} {v['value']:.6g} {v['unit']}"
                                       for k, v in values.items())
              + f" | failed_frac {r['failed'] / r['attempted']:.6g}"
              + f" ({r['failed']} of {r['attempted']} rows)")
        for reason in problems[name]:
            print(f"  {name}: {reason}")
        if len(results) == 1:
            metrics = values
        else:
            metrics.update({f"{name}.{k}": v for k, v in values.items()})
    print(json.dumps({
        "correct": not any(problems.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
