"""One workload iteration in a fresh interpreter; prints one JSON line.

usage: python3 perfbench/child.py WORKLOAD SEED MODE

MODE is `run` (run the iteration and check its outputs), `setup` (import
and build the workload's models, nothing else) or `trace` (as `run`, under
cProfile, adding the per-layer split).
A fresh interpreter per iteration pays the cold per-instance caches and
`lru_cache`s that a real `cotwist` invocation pays.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cotwist import cli  # noqa: E402
from cotwist.faults import FAULTS  # noqa: E402
from cotwist.models import build_model, twist_world  # noqa: E402
from cotwist.report import Report  # noqa: E402
from cotwist.suites import run_suite  # noqa: E402

import oracle  # noqa: E402

# The models each workload's invocations build: what `setup` mode builds.
SETUP_MODELS = {
    "torus_all": [("nc_torus", {"p": 1, "q": 5})],
    "finite_exhaustive": [("finite_bicharacter", {"n": 5}),
                          ("fun_group", {"group": "s3"})],
    "fault_sweep": [("nc_torus", {"p": 1, "q": 3, "box": 2, "samples": 24}),
                    ("fun_group", {"group": "s3"})],
}

FAULT_SAMPLES = 12


def invocations(workload, seed):
    """(kind, expected-output name, argv) of each CLI call in one iteration."""
    s = ["--seed", str(seed)]
    if workload == "torus_all":
        m = ["--model", "nc_torus", "--p", "1", "--q", "5", *s]
        return [("verify", "nc_torus_1_5_all",
                 ["verify", *m, "--suite", "all", "--format", "json"]),
                ("twist", "nc_torus_1_5_twisted", ["twist", *m]),
                ("twist", "nc_torus_1_5_untwisted", ["twist", *m, "--untwisted"])]
    if workload == "finite_exhaustive":
        return [("verify", "finite_bicharacter_5_cocycle",
                 ["verify", "--model", "finite_bicharacter", "--n", "5", *s,
                  "--suite", "cocycle", "--format", "json"]),
                ("verify", "fun_group_s3_all",
                 ["verify", "--model", "fun_group", "--group", "s3", *s,
                  "--suite", "all", "--format", "json"])]
    if workload == "fault_sweep":
        return []
    raise ValueError(f"unknown workload {workload!r}")


def setup(workload, seed):
    for name, params in SETUP_MODELS[workload]:
        bundle = build_model(name, seed=seed, **params)
        if bundle.is_geometric():
            twist_world(bundle)


def call_cli(argv):
    """cli.main in-process with stdout captured: (exit code, stdout)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a crash is a wrong output
        return f"raised {exc!r}", buf.getvalue()
    return code, buf.getvalue()


def iteration(workload, seed):
    """Run one iteration; returns its outputs, unchecked."""
    outputs = [(kind, name, *call_cli(argv))
               for kind, name, argv in invocations(workload, seed)]
    if workload == "fault_sweep":
        for fault in FAULTS:
            rep = Report(meta={"fault": fault.name})
            try:
                # each fault's model samples with its own fixed seed, as in acceptance 10
                run_suite(fault.build(), fault.suite, rep, samples=FAULT_SAMPLES)
            except Exception as exc:  # a crash is a wrong output
                outputs.append(("fault", fault.name, f"raised {exc!r}", rep.checks))
            else:
                outputs.append(("fault", fault.name, 0, rep.checks))
    return outputs


def problems(outputs):
    out = []
    for kind, name, code, result in outputs:
        if kind == "verify":
            p = oracle.verify_problem(name, code, result)
        elif kind == "twist":
            p = oracle.twist_problem(name, code, result)
        else:
            p = f"{name}: {code}" if code != 0 else oracle.fault_problem(name, result)
        if p:
            out.append(p)
    return out


def check_counts(outputs):
    """(checks run, checks failed) over every report of the iteration."""
    statuses = []
    for kind, _, code, result in outputs:
        if kind == "fault":
            statuses += [c.status for c in result]
        elif kind == "verify" and code in (0, 1):
            statuses += [c["status"] for c in json.loads(result)["checks"]]
    return len(statuses), statuses.count("fail")


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    result = {}
    if mode == "setup":
        setup(workload, seed)
        result["setup_s"] = time.perf_counter() - T0
    elif mode in ("run", "trace"):
        if mode == "trace":
            import layers
            probe = layers.Probe()
            probe.start()
        t_start = time.perf_counter()
        outputs = iteration(workload, seed)
        t_end = time.perf_counter()
        if mode == "trace":
            probe.stop()
            checks, failed = check_counts(outputs)
            result["layers"] = probe.metrics(checks, failed)
        result["wall_s"] = t_end - t_start
        result["invocations"] = len(outputs)
        result["problems"] = problems(outputs)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
