"""cotwist benchmark: one workload, timed (`--trace 0`) or profiled (`--trace 1`).

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Closed loop, one client: each iteration of
the workload runs in a fresh single-threaded child interpreter
(`perfbench/child.py`), one at a time, so a run uses one core for the child
and one for this process.  Timed mode starts iterations while the next one
is expected to end within `--seconds`; between them it runs set-up-only
children, which alone give `setup_s`.  It reports medians.  Traced mode
runs one untimed and one profiled iteration.  Every output is checked by
`perfbench/oracle.py`; the last line of stdout is the JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

SETUP_PROBES = 21


class ChildFailed(Exception):
    pass


def spawn(workload, seed, mode):
    """Run one child to completion: (its JSON result, peak RSS in MB)."""
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), workload, str(seed), mode],
        cwd=ROOT, stdout=subprocess.PIPE)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited with {proc.returncode}")
    lines = out.decode().splitlines()
    try:
        return json.loads(lines[-1]), usage.ru_maxrss / 1024
    except (IndexError, ValueError) as exc:
        raise ChildFailed(f"{mode} child printed no result ({exc!r})")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def unit_of(name):
    if name.endswith(("self_s", ".s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def metric(value, unit):
    return {"value": value, "unit": unit}


class Tally:
    """Invocations attempted and wrong, over every child of the run.

    A child that crashes counts as one attempted, wrong invocation.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def child(self, seed, mode):
        try:
            result, rss = spawn(self.workload, seed, mode)
        except ChildFailed as exc:
            print(f"{self.workload}: {exc}", file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            return None, None
        self.attempted += result["invocations"]
        self.failed += len(result["problems"])
        for problem in result["problems"]:
            print(f"{self.workload}: wrong output: {problem}", file=sys.stderr)
        return result, rss


def setup_probe(workload, seed):
    return spawn(workload, seed, "setup")[0]["setup_s"]


def timed(workload, seed, seconds):
    tally = Tally(workload)
    walls, setups, rss = [], [], []
    spans = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result, peak = tally.child(seed, "run")
        spans.append(time.perf_counter() - t0)
        if result:
            walls.append(result["wall_s"])
            rss.append(peak)
        # set-up probes keep pace with the iterations, so both see the same host
        share = min(1.0, (time.perf_counter() - start) / seconds)
        while len(setups) < SETUP_PROBES * share:
            setups.append(setup_probe(workload, seed))
        if time.perf_counter() - start + statistics.median(spans) > seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(workload, seed))
    if not walls:
        raise ChildFailed("no iteration completed")
    values = {"wall_s": (walls, "s"), "setup_s": (setups, "s"),
              "peak_rss_mb": (rss, "MB")}
    metrics = {}
    for name, (vals, unit) in values.items():
        q1, q3 = quartiles(vals)
        med = statistics.median(vals)
        metrics[name] = metric(med, unit)
        print(f"{workload} {name}: median {med:.4f} {unit}, "
              f"quartiles {q1:.4f}..{q3:.4f}, n={len(vals)}")
    print(f"{workload} wrong_frac: {tally.failed}/{tally.attempted}")
    return tally, metrics


def traced(workload, seed):
    tally = Tally(workload)
    plain, _ = tally.child(seed, "run")
    profiled, _ = tally.child(seed, "trace")
    if not (plain and profiled):
        raise ChildFailed("traced run incomplete")
    values = dict(profiled["layers"])
    values["trace.overhead_ratio"] = profiled["wall_s"] / plain["wall_s"]
    metrics = {k: metric(v, unit_of(k)) for k, v in values.items()}
    for name, m in metrics.items():
        print(f"{workload} {name}: {m['value']} {m['unit']}")
    return tally, metrics


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cotwist" / "__init__.py").is_file():
        sys.exit(f"error: no cotwist sources under {ROOT / 'src'}")
    try:
        spawn(args.workload, args.seed, "setup")  # warm the bytecode and file caches
        if args.trace:
            tally, metrics = traced(args.workload, args.seed)
        else:
            tally, metrics = timed(args.workload, args.seed, args.seconds)
    except ChildFailed as exc:
        sys.exit(f"error: {args.workload}: {exc}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
