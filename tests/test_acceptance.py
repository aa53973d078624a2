"""Acceptance gate: the ten exit criteria, all at zero numerical tolerance.

Each test prints one `ACCEPTANCE <n> pass|FAIL` line.  Every equality is an
exact identity in Q(zeta_N); there are no thresholds to tune, only runtime
targets on the two exhaustive/sampled sweeps.
"""

import time

import pytest

from cotwist.emit import emit_json, structure_tables
from cotwist.geometry import chern_conditions_hold, chern_solve, twist_connection
from cotwist.models import finite_bicharacter, fun_group, nc_torus, twist_world
from cotwist.report import Report
from cotwist.suites import run_suite


def announce(num, ok, label):
    print(f"ACCEPTANCE {num:02d} {'pass' if ok else 'FAIL'} - {label}")
    assert ok, label


@pytest.fixture(scope="module")
def nct13():
    return nc_torus(1, 3)


@pytest.fixture(scope="module")
def world13(nct13):
    return twist_world(nct13)


def test_criterion_01_appendix_identities_exhaustive():
    t0 = time.monotonic()
    bundle = finite_bicharacter(5, "skew")
    rep = Report()
    run_suite(bundle, "cocycle", rep)
    elapsed = time.monotonic() - t0
    wanted = {
        "cocycle.equation", "cocycle.equivalent-ii", "cocycle.equivalent-iii",
        "cocycle.equivalent-iv", "cocycle.unital", "cocycle.convolution-inverse",
        "unitary.gamma-conjugation", "unitary.gammabar-conjugation",
        "unitary.vbar-conjugation", "unitary.u-ubar-inverse",
        "unitary.v-vbar-inverse", "unitary.vbar-exchange",
        "unitary.vbar-merge", "unitary.u-exchange",
    }
    ids = {c.check_id for c in rep.checks}
    ok = rep.passed and wanted <= ids and \
        all(c.sample_spec.startswith("exhaustive") for c in rep.checks) and \
        elapsed < 60.0
    announce(1, ok, f"exhaustive cocycle+unitarity suite on C[Z5^2] ({elapsed:.1f}s)")


def test_criterion_02_cocommutative_collapse(nct13):
    A = nct13.hopf
    Atw = twist_world(nct13).hopf
    labels = A.labels_box(6)
    ok = True
    for a in labels:
        for b in labels:
            if Atw.mult(a, b) != A.mult(a, b):
                ok = False
                break
        if not ok or Atw.star(a) != A.star(a):
            ok = False
            break
    announce(2, ok, "product_g = product and *_g = * on C[Z^2], box |m|<=6")


def test_criterion_03_round_trip_byte_identical(nct13, world13):
    original = emit_json(structure_tables(nct13))
    returned = emit_json(structure_tables(twist_world(world13)))
    announce(3, original == returned,
             "gamma then gammabar reproduces every table byte-identically")


def test_criterion_04_hermitian_coherence(nct13):
    rep = Report()
    run_suite(nct13, "hermitian", rep)
    agree = next(c for c in rep.checks if c.check_id == "herm.metric-route-agree")
    relation = next(c for c in rep.checks if c.check_id == "herm.relation-sampled")
    pairs = relation.instances
    ok = rep.passed and agree.status == "pass" and \
        relation.status == "pass" and pairs >= 100
    announce(4, ok, f"H_(g_g) = (H_g)_g and the pairing relation on {pairs} pairs")


def test_criterion_05_twisted_levi_civita(world13):
    conn, metric, cal = world13.connection, world13.metric, world13.calculus
    O1 = cal.module(1)
    ok = conn.metric_compat(metric).is_zero()
    for i in O1.basis:
        ok = ok and conn.torsion(O1.el(i)).is_zero()
    for lab in ((1, 0), (0, 1), (2, -1), (-3, 2)):
        e = O1.from_b(world13.comodule.el(lab), "w+")
        ok = ok and conn.torsion(e).is_zero()
    announce(5, ok, "twisted LC connection is torsionless and metric-compatible")


def test_criterion_06_chern_unique_and_transported(nct13, world13):
    ok = True
    transported = {}
    for tag, holo, h, holo_tw, h_tw in (
            ("10", nct13.holo_10, nct13.hermitian_splits[0],
             world13.holo_10, world13.hermitian_splits[0]),
            ("01", nct13.holo_01, nct13.hermitian_splits[1],
             world13.holo_01, world13.hermitian_splits[1])):
        try:
            base = chern_solve(holo, h, coeff_box=1)       # kernel must be trivial
            tw = chern_solve(holo_tw, h_tw, coeff_box=1)
        except Exception as exc:
            ok = False
            break
        good, wit = chern_conditions_hold(holo_tw, h_tw, tw)
        ok = ok and good
        moved = twist_connection(base, nct13.data, world13.calculus,
                                 module_tw=tw.module)
        for i in tw.module.basis:
            ok = ok and tw.table[i].pruned() == moved.table[i].pruned()
    announce(6, ok, "Chern solves are unique and the twisted one is the transport")


@pytest.mark.parametrize("p,q", [(1, 3), (1, 5)])
def test_criterion_07_main_theorem(p, q):
    t0 = time.monotonic()
    bundle = nc_torus(p, q)
    rep = Report()
    run_suite(bundle, "main", rep)
    elapsed = time.monotonic() - t0
    sample_check = next(c for c in rep.checks if c.check_id == "main.direct-sum-samples")
    monomials = sample_check.instances
    ok = rep.passed and monomials >= 100 and elapsed < 120.0
    announce(7, ok,
             f"nabla_g = Chern (+) Chern on nc_torus({p},{q}), "
             f"{monomials} samples ({elapsed:.1f}s)")


def test_criterion_08_bar_functor_coherence(nct13):
    wanted = {"bar.hexagon", "bar.bb-condition", "bar.star-transport"}
    rep = Report()
    run_suite(nct13, "barfunctor", rep)
    ids = {c.check_id for c in rep.checks}
    ok = rep.passed and wanted <= ids
    # the instrument model with non-grouplike Sweedler paths
    rep2 = Report()
    run_suite(fun_group("s3"), "barfunctor", rep2, samples=6)
    ok = ok and rep2.passed and {"bar.hexagon", "bar.bb-condition"} <= \
        {c.check_id for c in rep2.checks}
    announce(8, ok, "hexagon, bb condition and star transport hold exactly")


def test_criterion_09_kahler_layer(nct13):
    rep = Report()
    run_suite(nct13, "calculus", rep)
    kahler_ids = {c.check_id for c in rep.checks if c.check_id.startswith("kahler.")}
    wanted = {
        f"kahler.{tag}.{item}" for tag in ("base", "twisted")
        for item in ("central", "real", "coinvariant", "closed", "lefschetz")}
    ok = rep.passed and wanted <= kahler_ids
    announce(9, ok, "kappa is central/real/coinvariant/closed with bijective L, both worlds")


def test_criterion_10_fault_sensitivity():
    from cotwist.faults import FAULTS
    ok = len(FAULTS) == 10
    for fault in FAULTS:
        bundle = fault.build()
        rep = Report()
        run_suite(bundle, fault.suite, rep, samples=12)
        caught = [c for c in rep.failures()]
        ok = ok and bool(caught) and all(c.witness for c in caught)
        rep_all = Report()
        run_suite(fault.build(), "all", rep_all, samples=8)
        ok = ok and not rep_all.passed
    announce(10, ok, "all ten single-entry perturbations caught, none passes `all`")
