"""A deterministic cost gate: one traced benchmark iteration per workload against a budget.

`perfbench/child.py WORKLOAD SEED trace` runs one iteration of a benchmark
workload under the benchmark's per-layer probe and prints its exact call
counts.  The probe patches constructors for the life of its process, so it
runs in a subprocess; the three workloads' children run at once, so the
test costs about one iteration.  Each count in `tests/cost_budget.json` may
be exceeded by at most `margin` of its budget; `suites.checks`, the work the
counts pay for, must equal its budget.  Unlike wall time, these counts
repeat exactly from run to run.  A change that means to spend more
re-records the budget and says why.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUDGET = json.loads((ROOT / "tests" / "cost_budget.json").read_text())


def test_a_traced_iteration_stays_within_its_cost_budget():
    children = {workload: subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), workload, str(BUDGET["seed"]),
         "trace"], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for workload in BUDGET["workloads"]}
    # every child is waited for before the first assertion
    runs = {workload: (child.communicate(timeout=300), child.returncode)
            for workload, child in children.items()}
    over, checks = {}, {}
    for workload, ((out, err), code) in runs.items():
        assert code == 0, err
        result = json.loads(out.splitlines()[-1])
        assert result["problems"] == [], workload
        counts, budget = result["layers"], BUDGET["workloads"][workload]
        over.update({(workload, name): (counts[name], cap) for name, cap in budget.items()
                     if counts[name] > cap * (1 + BUDGET["margin"])})
        checks[workload] = (counts["suites.checks"], budget["suites.checks"])
    assert over == {}, "count, budget"
    assert all(got == want for got, want in checks.values()), checks
