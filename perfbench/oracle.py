"""Correctness oracle: compares workload outputs with the stored expected outputs.

Only what cannot vary between runs is compared.  A `verify --format json`
report must match the stored one once every `duration_ms` is zeroed and the
seed is masked (in `meta.seed` and in each `sample_spec`), so check ids,
order, anchors, statuses, witnesses and the `monomials=` count all count.
A `twist` emission must match its stored sha256.  A fault's checks must
match the stored ones exactly: ids, order, statuses and witnesses.  So a
check that raises, which `report` records as a `fail` with the witness
`exception ...`, counts as wrong unless the stored data expect it.  Each
function returns a one-line description of what is wrong, or None.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected"
DIGESTS = EXPECTED / "twist_sha256.json"
FAULT_SWEEP = EXPECTED / "fault_sweep.json"

_SEED = re.compile(r"seed=-?\d+")


def normalise_report(report):
    """Zero the durations and mask the seed of a parsed verify report."""
    meta = report["meta"]
    meta["seed"] = "*"
    if "sample_spec" in meta:
        meta["sample_spec"] = _SEED.sub("seed=*", meta["sample_spec"])
    for check in report["checks"]:
        check["duration_ms"] = 0
        check["sample_spec"] = _SEED.sub("seed=*", check["sample_spec"])
    return report


def expected_report(name):
    return json.loads((EXPECTED / f"{name}.json").read_text())


def verify_problem(name, code, text):
    if code != 0:
        return f"{name}: exit code {code}"
    try:
        got = normalise_report(json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        return f"{name}: unreadable report ({exc!r})"
    want = expected_report(name)
    if got == want:
        return None
    for i, (g, w) in enumerate(zip(got["checks"], want["checks"])):
        if g != w:
            return f"{name}: check {i} ({w['check_id']}) differs: got {g}"
    return f"{name}: report differs from expected/{name}.json"


def emission_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def twist_problem(name, code, text):
    if code != 0:
        return f"{name}: exit code {code}"
    want = json.loads(DIGESTS.read_text())[name]
    got = emission_digest(text)
    if got != want:
        return f"{name}: emission sha256 {got} != {want}"
    return None


def fault_outcomes(checks):
    """A fault's Report.checks as stored: [[check id, status, witness], ...]."""
    return [[c.check_id, c.status, c.witness] for c in checks]


def fault_problem(name, checks):
    """`checks` is the fault's Report.checks list."""
    got = fault_outcomes(checks)
    want = json.loads(FAULT_SWEEP.read_text())[name]
    if got == want:
        return None
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"{name}: check {i} gave {g}, expected {w}"
    return f"{name}: {len(got)} checks, expected {len(want)}"
