"""Suite-level behaviour: models pass, check ids are disjoint, `all` is the union."""

import json
from pathlib import Path

import pytest

from cotwist.cyclotomic import Cyc
from cotwist.geometry import ChernNoSolution, HermitianData, chern_solve
from cotwist.models import (
    classical_torus, finite_bicharacter, fun_group, nc_torus, twist_world)
from cotwist.report import Report
from cotwist import models, suites
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


def _count_chern_solves(monkeypatch):
    """Record the coefficient box of every Chern solve, from the bundle
    accessor and from the suites' own box-0 re-solve."""
    boxes = []

    def counted(holo, herm, coeff_box=1):
        boxes.append(coeff_box)
        return chern_solve(holo, herm, coeff_box)

    monkeypatch.setattr(models, "chern_solve", counted)
    monkeypatch.setattr(suites, "chern_solve", counted)
    return boxes


def test_all_solves_each_chern_connection_once(monkeypatch):
    boxes = _count_chern_solves(monkeypatch)
    rep = Report()
    run_suite(nc_torus(1, 5, box=2, samples=4), "all", rep)
    # base and twisted, (1,0) and (0,1); plus the base box-0 re-solves
    assert sorted(boxes) == [0, 0, 1, 1, 1, 1]
    assert rep.passed, rep.to_text()


def test_main_alone_solves_its_chern_connections(monkeypatch):
    boxes = _count_chern_solves(monkeypatch)
    rep = Report()
    run_suite(nc_torus(1, 5, box=2, samples=4), "main", rep)
    assert boxes == [1, 1]
    assert rep.passed, rep.to_text()
    assert {c.check_id for c in rep.checks} >= {
        "main.direct-sum-basis", "main.direct-sum-samples"}


def _unsolvable_10(bundle):
    """The bundle with a (1,0) Hermitian block no connection is compatible with."""
    h1, h2 = bundle.hermitian_splits
    table = {("bar", "w+"): h1.table[("bar", "w+")].copy()}
    table[("bar", "w+")].add_term(((1, 0), ("dual", "w+")), Cyc.one(4))
    return bundle.replace(hermitian_splits=(HermitianData(bundle.calculus, h1.module, table), h2))


def test_chern_solver_error_is_raised_not_cached():
    good = classical_torus(box=1, samples=4)
    bad = _unsolvable_10(good)
    for _ in range(2):
        with pytest.raises(ChernNoSolution):
            bad.chern("10")
    assert bad.chern("01").table == good.chern("01").table


def test_each_chern_system_is_solved_once(monkeypatch):
    solves = []

    def counted(holo, herm):
        solves.append((holo, herm))
        return chern_solve(holo, herm)

    monkeypatch.setattr(models, "chern_solve", counted)
    bad = _unsolvable_10(classical_torus(box=1, samples=4))
    run_suite(bad, "all", Report(), samples=4)
    # the (1,0) and (0,1) systems of the base and of the twisted world, the
    # failing (1,0) ones included, each solved once
    assert len(solves) == 4
    assert len({(id(holo), id(herm)) for holo, herm in solves}) == 4
    assert bad.hermitian_splits[0] in [herm for _, herm in solves]


def test_failed_chern_solve_is_the_witness():
    rep = Report()
    run_suite(_unsolvable_10(classical_torus(box=1, samples=4)), "all", rep, samples=4)
    status = {c.check_id: (c.status, c.witness) for c in rep.checks}
    witness = "no Chern connection in search space (witness row 14)"
    for check_id in ("chern.base.10.solve", "chern.twisted.10.solve", "main.direct-sum-basis"):
        assert status[check_id] == ("fail", witness)
    # nothing that needs the (1,0) connection runs; the (0,1) one still does
    assert "chern.base.10.box-independent" not in status
    assert status["chern.untwisted-hypothesis"][0] == "skipped"
    assert status["chern.base.01.box-independent"] == ("pass", None)


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
