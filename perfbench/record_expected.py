"""Write the oracle's expected outputs from the current tree.

usage: python3 perfbench/record_expected.py

Run it only when a change is meant to alter `verify` reports, `twist`
emissions or what the faults make fail, and say so in the change: the
stored outputs are the oracle.  The seed does not matter: the oracle masks
it in `verify` reports, and the fault sweep does not use it.
"""

import json

import child
import oracle

SEED = 42


def main():
    oracle.EXPECTED.mkdir(exist_ok=True)
    digests = {}
    for workload in ("torus_all", "finite_exhaustive"):
        for kind, name, argv in child.invocations(workload, SEED):
            code, text = child.call_cli(argv)
            if code != 0:
                raise SystemExit(f"{name}: exit code {code}; nothing recorded")
            if kind == "verify":
                report = oracle.normalise_report(json.loads(text))
                path = oracle.EXPECTED / f"{name}.json"
                path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
            else:
                digests[name] = oracle.emission_digest(text)
    oracle.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    sweep = {}
    for _, name, code, checks in child.iteration("fault_sweep", SEED):
        if code != 0:
            raise SystemExit(f"{name}: {code}; nothing recorded")
        sweep[name] = oracle.fault_outcomes(checks)
    oracle.FAULT_SWEEP.write_text(json.dumps(sweep, indent=1) + "\n")


if __name__ == "__main__":
    main()
