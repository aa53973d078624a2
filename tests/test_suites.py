"""Suite-level behaviour: models pass, check ids are disjoint, `all` is the union."""

import json
from pathlib import Path

import pytest

from cotwist.models import classical_torus, finite_bicharacter, fun_group, nc_torus
from cotwist.report import Report
from cotwist.suites import SUITES, run_suite


MODELS = [
    ("classical_torus", lambda: classical_torus(box=2, samples=10)),
    ("nc_torus(1,3)", lambda: nc_torus(1, 3, box=2, samples=10)),
    ("finite_bicharacter(3,skew)", lambda: finite_bicharacter(3)),
    ("finite_bicharacter(3,upper)", lambda: finite_bicharacter(3, "upper")),
    ("fun_group(s3)", lambda: fun_group("s3")),
]


@pytest.mark.parametrize("name,factory", MODELS, ids=[m[0] for m in MODELS])
def test_all_suites_pass(name, factory):
    rep = Report()
    run_suite(factory(), "all", rep, samples=8)
    assert rep.passed, rep.to_text()


def test_check_ids_disjoint_and_all_is_union():
    bundle = nc_torus(1, 3, box=2, samples=6)
    per_suite = {}
    for suite in SUITES:
        rep = Report()
        run_suite(bundle, suite, rep, samples=6)
        per_suite[suite] = {c.check_id for c in rep.checks}
    names = list(per_suite)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            overlap = per_suite[a] & per_suite[b]
            assert not overlap, f"suites {a} and {b} share {overlap}"
    rep_all = Report()
    run_suite(bundle, "all", rep_all, samples=6)
    union = set().union(*per_suite.values())
    assert {c.check_id for c in rep_all.checks} == union


# ordered (check id, anchor) lists of `all`, recorded before the checks were
# routed through Report.forall
ORDER_MODELS = {
    "nc_torus(1,3)": lambda: nc_torus(1, 3, box=2, samples=6),
    "fun_group(s3)": lambda: fun_group("s3"),
}


@pytest.mark.parametrize("name", list(ORDER_MODELS))
def test_check_ids_anchors_and_order_are_pinned(name):
    expected = json.loads(Path(__file__).with_name("check_order.json").read_text())[name]
    rep = Report()
    run_suite(ORDER_MODELS[name](), "all", rep, samples=6)
    assert [[c.check_id, c.anchor] for c in rep.checks] == expected


def test_every_check_is_anchored():
    rep = Report()
    run_suite(nc_torus(1, 3, box=2, samples=6), "all", rep, samples=6)
    assert all(c.anchor for c in rep.checks)


def test_skipped_checks_for_instrument_models():
    rep = Report()
    run_suite(finite_bicharacter(3), "main", rep)
    assert any(c.status == "skipped" for c in rep.checks)
    assert rep.passed  # skipped entries do not fail the run
