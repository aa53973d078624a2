"""Suite-level behaviour: models pass, check ids are disjoint, `all` is the union."""

import json
from pathlib import Path

import pytest

from cotwist.models import (
    classical_torus, finite_bicharacter, fun_group, nc_torus, twist_world)
from cotwist.report import Report
from cotwist import suites
from cotwist.suites import SUITES, run_suite
from cotwist.vectors import Vec


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


def test_every_pass_evaluated_an_instance():
    rep = Report()
    run_suite(nc_torus(1, 3, box=2, samples=6), "all", rep, samples=6)
    vacuous = [c.check_id for c in rep.checks if c.status == "pass" and not c.instances]
    assert vacuous == []


def test_skipped_checks_for_instrument_models():
    rep = Report()
    run_suite(finite_bicharacter(3), "main", rep)
    assert any(c.status == "skipped" for c in rep.checks)
    assert rep.passed  # skipped entries do not fail the run


def test_all_twists_once_and_untwists_once(monkeypatch):
    calls = []

    def counted(bundle):
        calls.append(bundle.name)
        return twist_world(bundle)

    monkeypatch.setattr(suites, "twist_world", counted)
    rep = Report()
    run_suite(nc_torus(1, 5, box=2, samples=4), "all", rep)
    assert calls == ["nc_torus(1,5)", "tw(nc_torus(1,5))"]
    assert rep.passed, rep.to_text()


@pytest.mark.parametrize("override,message", [
    ({"box": -1}, "box must be >= 0, got -1"),
    ({"samples": -5}, "samples must be >= 0, got -5"),
])
def test_run_suite_rejects_negative_box_and_samples(override, message):
    with pytest.raises(ValueError, match=message):
        run_suite(nc_torus(1, 3, box=2, samples=6), "hopf", Report(), **override)


def test_generation_fails_when_d_never_reaches_w_minus():
    bundle = classical_torus(box=2, samples=6)
    cal = bundle.calculus
    d_base = cal.d_base
    cal.d_base = lambda label: Vec(cal.scalar_order, {
        key: c for key, c in d_base(label).terms.items() if key[1] != "w-"})
    rep = Report()
    run_suite(bundle, "calculus", rep, samples=6)
    check = next(c for c in rep.checks if c.check_id == "calc.base.generated-by-b-db")
    assert check.status == "fail"
    assert check.witness == "basis form w- not generated by B.dB over the box"
