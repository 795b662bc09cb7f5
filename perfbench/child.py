"""One workload run in a fresh process: timed passes, output checks, trace.

``run.py`` starts this script for one workload at a time, so the process's
peak RSS and CPU time belong to that workload alone.  It repeats the pass
until ``--seconds`` have gone by (at least once) and prints one JSON object
as its last line.  With ``--trace 1`` every pass runs under the tracer and
the result carries the per-layer figures.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_seconds() -> float:
    """User plus system time of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """The larger of this process's and its largest child's maximum RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def timed_passes(workload, shift: float, work_dir: str, seconds: float,
                 traced: bool = False) -> list:
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        out_dir = os.path.join(work_dir, f"pass-{len(passes)}")
        os.makedirs(out_dir, exist_ok=True)
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        output = workload.run(shift, out_dir)
        wall = time.perf_counter() - t0
        passes.append({"wall_s": wall, "cpu_s": cpu_seconds() - cpu0, "traced": traced,
                       "output": output})
    return passes


def _openblas_runtime(package) -> dict:
    """Thread count and build string reported by a package's bundled OpenBLAS."""
    found = {}
    libdir = os.path.join(os.path.dirname(package.__file__), os.pardir,
                          package.__name__ + ".libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                found[os.path.basename(path)] = {
                    "num_threads": int(get_threads()),
                    "config": get_config().decode(errors="replace"),
                }
    return found


def environment(seed: int) -> dict:
    blas = {}
    for package in (numpy, scipy):
        info = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[package.__name__] = {
            "name": info.get("name"),
            "version": info.get("version"),
            "build_config": info.get("openblas configuration"),
            "runtime": _openblas_runtime(package),
        }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    shift = workloads.g_shift(args.seed)
    result = {"env": environment(args.seed)}

    if args.trace:
        spool = os.path.join(args.work_dir, "spool")
        os.makedirs(spool, exist_ok=True)
        recorder = tracer.Tracer(spool)
        recorder.install()
        try:
            passes = timed_passes(workload, shift, args.work_dir, args.seconds, traced=True)
        finally:
            recorder.uninstall()
        recorder.collect()
        result["layers"] = tracer.layer_metrics(recorder.spans, len(passes), workload.workers)
        with open(os.path.join(args.work_dir, "spans.json"), "w", encoding="utf-8") as handle:
            json.dump(recorder.spans, handle)
    else:
        passes = timed_passes(workload, shift, args.work_dir, args.seconds)

    reference = workloads.reference_for(workload, args.seed)
    attempted = 0
    failures = []
    for one in passes:
        rows, failed = workload.check(one["output"], shift, reference)
        attempted += rows
        failures += failed
    digests = set()
    if isinstance(passes[0]["output"], dict):  # the CSV files each pass wrote
        for one in passes:
            texts = workloads.read_texts(one["output"])
            digests.add(hashlib.sha256(
                "".join(texts[n] for n in sorted(texts)).encode()).hexdigest())
    result.update(
        passes=[{k: p[k] for k in ("wall_s", "cpu_s", "traced")} for p in passes],
        peak_rss_mb=peak_rss_mb(),
        attempted=attempted,
        failed=len(failures),
        failures=failures[:20],
        csv_sha256=sorted(digests),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
