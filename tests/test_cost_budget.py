"""A deterministic cost gate: one traced benchmark iteration against a budget.

`perfbench/child.py WORKLOAD SEED trace` runs one iteration of a benchmark
workload under the benchmark's per-layer probe and prints its exact call
counts.  The probe patches constructors for the life of its process, so it
runs in a subprocess.  Each count in `tests/cost_budget.json` may be
exceeded by at most `margin` of its budget; `suites.checks`, the work the
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
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), BUDGET["workload"],
         str(BUDGET["seed"]), "trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["problems"] == []
    counts = result["layers"]
    over = {name: (counts[name], budget) for name, budget in BUDGET["counts"].items()
            if counts[name] > budget * (1 + BUDGET["margin"])}
    assert over == {}, "count, budget"
    assert counts["suites.checks"] == BUDGET["counts"]["suites.checks"]
