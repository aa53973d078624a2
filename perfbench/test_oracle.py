"""Self-test of the correctness oracle: a wrong output must count as wrong.

usage: python3 perfbench/test_oracle.py      (or: python3 -m pytest perfbench)
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402  (puts src/ on the path)
import oracle  # noqa: E402
from cotwist.faults import FAULTS  # noqa: E402
from cotwist.report import CheckResult, Report  # noqa: E402
from cotwist.suites import run_suite  # noqa: E402

REPORT = "finite_bicharacter_5_cocycle"
EMISSION = "nc_torus_1_5_twisted"


def _as_printed(report, seed=7):
    """A stored report as `verify` prints it: real seed, nonzero durations."""
    report["meta"]["seed"] = seed
    report["meta"]["sample_spec"] = report["meta"]["sample_spec"].replace(
        "seed=*", f"seed={seed}")
    for i, check in enumerate(report["checks"]):
        check["duration_ms"] = 10 + i
        check["sample_spec"] = check["sample_spec"].replace("seed=*", f"seed={seed}")
    return json.dumps(report, indent=2, sort_keys=True)


def test_stored_report_passes_under_any_seed():
    for seed in (7, 42):
        text = _as_printed(oracle.expected_report(REPORT), seed)
        assert oracle.verify_problem(REPORT, 0, text) is None


def test_flipped_status_is_wrong():
    report = oracle.expected_report(REPORT)
    assert report["checks"][3]["status"] == "pass"
    report["checks"][3]["status"] = "fail"
    assert oracle.verify_problem(REPORT, 0, _as_printed(report)) is not None


def test_exit_code_and_garbage_are_wrong():
    text = _as_printed(oracle.expected_report(REPORT))
    assert oracle.verify_problem(REPORT, 1, text) is not None
    assert oracle.verify_problem(REPORT, 0, text[:-20]) is not None


def test_changed_byte_in_emission_is_wrong():
    argv = next(a for _, name, a in child.invocations("torus_all", 42) if name == EMISSION)
    code, text = child.call_cli(argv)
    assert oracle.twist_problem(EMISSION, code, text) is None
    k = len(text) // 2
    changed = text[:k] + ("1" if text[k] != "1" else "2") + text[k + 1:]
    assert oracle.twist_problem(EMISSION, code, changed) is not None


def _stored_checks(fault):
    return [CheckResult(check_id, "plumbing", status=status, witness=witness)
            for check_id, status, witness
            in json.loads(oracle.FAULT_SWEEP.read_text())[fault]]


def test_fault_run_matches_stored():
    fault = next(f for f in FAULTS if f.name == "hermitian-scaled")
    rep = Report()
    run_suite(fault.build(), fault.suite, rep, samples=child.FAULT_SAMPLES)
    assert oracle.fault_problem(fault.name, rep.checks) is None


def test_fault_failing_through_an_exception_is_wrong():
    fault = "cocycle-value-scaled"
    checks = _stored_checks(fault)
    assert oracle.fault_problem(fault, checks) is None
    for c in checks:
        if c.status == "fail":
            c.witness = "exception ZeroDivisionError: Fraction(1, 0)"
    assert oracle.fault_problem(fault, checks) is not None


def test_fault_with_a_lost_or_new_failure_is_wrong():
    fault = "antipode-corrupted"
    checks = _stored_checks(fault)
    first_fail = next(c for c in checks if c.status == "fail")
    first_fail.status, first_fail.witness = "pass", None
    assert oracle.fault_problem(fault, checks) is not None
    checks = _stored_checks(fault)
    passing = next(c for c in checks if c.status == "pass")
    passing.status, passing.witness = "fail", "at d[012]"
    assert oracle.fault_problem(fault, checks) is not None
    assert oracle.fault_problem(fault, _stored_checks(fault)[1:]) is not None


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
