"""Every check of the models that no benchmark workload runs still reports
what it reported when `pinned_models.json` was recorded.

Each model runs `verify --box 2 --samples S --seed 1 --suite all`, in
process, at each of SAMPLE_COUNTS: 0 and 3 are below every cap of
`Sampler.draws`, and 7 is above the caps of 6 and below those of 8, 10
and 12, so a slip in a cap, or in a draw loop that ignores the sample
count, changes a pin.  Each of its checks is pinned as [check id, status,
witness, instances], one table per sample count.  A change that is meant to
alter a report (a structured witness, a new sample count, a new check)
re-records the file, all three counts at once, and says why:

    PYTHONPATH=src python tests/test_pinned_models.py

The samples-3 run also pins, in `vacuous_checks.txt`, each check of
`Report.equal` that evaluated instances but saw no nonzero side.
"""

import json
from functools import cache
from pathlib import Path

import pytest

from cotwist.models import build_model
from cotwist.report import Report
from cotwist.suites import run_suite

PINNED = Path(__file__).with_name("pinned_models.json")
VACUOUS = Path(__file__).with_name("vacuous_checks.txt")
MODELS = {
    "classical_torus": ("classical_torus", {}),
    "nc_torus(1,3)": ("nc_torus", {"p": 1, "q": 3}),
    "nc_torus(2,5)": ("nc_torus", {"p": 2, "q": 5}),
    "finite_bicharacter(2,skew)": ("finite_bicharacter", {"n": 2, "pairing": "skew"}),
    "finite_bicharacter(3,skew)": ("finite_bicharacter", {"n": 3, "pairing": "skew"}),
    "finite_bicharacter(3,upper)": ("finite_bicharacter", {"n": 3, "pairing": "upper"}),
    "finite_bicharacter(3,trivial)": ("finite_bicharacter", {"n": 3, "pairing": "trivial"}),
}
SAMPLE_COUNTS = (0, 3, 7)


@cache
def checks(key, samples):
    name, params = MODELS[key]
    rep = Report()
    run_suite(build_model(name, box=2, samples=samples, seed=1, **params), "all", rep)
    return rep.checks


def report(key, samples):
    return [[c.check_id, c.status, c.witness, c.instances] for c in checks(key, samples)]


def pinned(key, samples):
    return json.loads(PINNED.read_text())[str(samples)][key]


@pytest.mark.parametrize("key", list(MODELS))
def test_model_reports_are_pinned(key):
    assert report(key, 3) == pinned(key, 3)


@pytest.mark.parametrize("samples", [0, 7])
@pytest.mark.parametrize("key", list(MODELS))
def test_model_reports_are_pinned_on_both_sides_of_the_caps(key, samples):
    assert report(key, samples) == pinned(key, samples)


@pytest.mark.parametrize("key", list(MODELS))
def test_the_checks_that_compared_only_zeros_are_listed(key):
    found = {c.check_id for c in checks(key, 3) if c.instances and c.nonzero is False}
    listed = {line.split()[1] for line in VACUOUS.read_text().splitlines()
              if line.split() and line.split()[0] == key}
    # a check new to the list compared only zeros on this model
    assert sorted(found - listed) == []
    # a listed check that now sees a nonzero side leaves the list
    assert sorted(listed - found) == []


if __name__ == "__main__":
    # one check a line, so that a re-recorded file shows each changed check
    PINNED.write_text("{\n" + ",\n".join(
        f" \"{samples}\": {{\n" + ",\n".join(
            f"  {json.dumps(key)}: [\n"
            + ",\n".join(f"   {json.dumps(row)}" for row in report(key, samples)) + "\n  ]"
            for key in MODELS) + "\n }"
        for samples in SAMPLE_COUNTS) + "\n}\n")
