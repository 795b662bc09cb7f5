"""Write reference.json: every workload's output at seed 0, one pass each.

    python3 perfbench/make_reference.py

Run it only when the program's results are meant to change; the benchmark
compares every seed-0 run against these values.
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import workloads  # noqa: E402


def main() -> None:
    stored = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(workloads.REFERENCE_PATH)) as out:
        for name in ("full_scan", "ratio_scan", "cs_sweep"):
            workload = workloads.WORKLOADS[name]
            stored[name] = workload.values(workload.run(0.0, out))
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(stored, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
