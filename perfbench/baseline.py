"""Measure the baseline: the benchmark on every workload, several seeds each.

usage: python3 perfbench/baseline.py

Timed runs use seeds 1..10.  For each end-to-end metric it records n,
median, quartiles and the spread (quartile distance over median) of the
per-run values.  Two traced runs per workload (seed 42) give the per-layer
metrics and show that every count repeats exactly.  Also records the line
count of each `src/cotwist` module.  Writes BASELINE.json.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_SEED = 42
RUNS = 10


def bench(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "values": values}


def is_count(name):
    return name.endswith((".calls", ".size")) or name in ("suites.checks",
                                                          "suites.checks_failed")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "machine": {"cpus": len(os.sched_getaffinity(0)),
                    "python": platform.python_version()},
        "run_seconds": spec["run_seconds"],
        "src_lines": {p.stem: len(p.read_text().splitlines())
                      for p in sorted((ROOT / "src" / "cotwist").glob("*.py"))},
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, seed, spec["run_seconds"], 0)
                for seed in range(1, RUNS + 1)]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                           for m in spec["end_to_end"]},
        }
        a, b = (bench(workload, TRACE_SEED, spec["run_seconds"], 1)["metrics"]
                for _ in range(2))
        entry["per_layer"] = {k: v["value"] for k, v in a.items()}
        entry["counts_repeat"] = all(
            a[k]["value"] == b[k]["value"] for k in a if is_count(k))
        record["workloads"][workload] = entry
        print(json.dumps({workload: {k: v["median"] for k, v in entry["end_to_end"].items()}}),
              flush=True)
        (HERE / "BASELINE.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
