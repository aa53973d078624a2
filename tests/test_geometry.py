"""Geometry layer: metric, LC connection, Hermitian data, Chern solver."""

import pytest

from cotwist.cyclotomic import Cyc
from cotwist.geometry import (
    ChernNotUnique, ChernNoSolution, DiamondViolation, HermitianData,
    chern_conditions_hold, chern_solve, conj_connection, hermitian_from_real,
    split_hermitian, twist_connection)
from cotwist.models import classical_torus, nc_torus, twist_world
from cotwist.modules import conj_of
from cotwist.vectors import Vec


@pytest.fixture(scope="module")
def torus():
    # order 12 so frozen scalars match the nc_torus(1,3) field
    return classical_torus(order=12)


@pytest.fixture(scope="module")
def nct():
    return nc_torus(1, 3)


@pytest.fixture(scope="module")
def world(nct):
    return twist_world(nct)


def test_metric_tables(torus):
    m = torus.metric
    O1 = m.module
    # diamond condition on the adapted basis
    assert m.pair(O1.el("w+"), O1.el("w+")).is_zero()
    assert m.pair(O1.el("w-"), O1.el("w-")).is_zero()
    two = Vec.single(12, (0, 0), 2)
    assert m.pair(O1.el("w+"), O1.el("w-")) == two
    # snake identities on the basis
    for name in O1.basis:
        assert m.snake_left(name) == O1.el(name)
        assert m.snake_right(name) == O1.el(name)
    assert m.dagger(m.g) == m.g  # real


def test_broken_pairing_fails_snake(torus):
    from cotwist.geometry import MetricData
    broken = dict(torus.metric.pairing_table)
    broken[("w+", "w-")] = Vec.single(12, (0, 0), 1)
    m2 = MetricData(torus.calculus, torus.metric.g, broken)
    assert m2.snake_left("w+") != m2.module.el("w+")


def test_lc_connection(torus):
    c = torus.connection
    O1 = c.module
    B = torus.comodule
    for i in O1.basis:
        assert c.torsion(O1.el(i)).is_zero()
    # torsion is left-linear over sampled coefficients
    e = O1.from_b(B.el((2, 1)), "w+")
    assert c.torsion(e).is_zero()
    assert c.metric_compat(torus.metric).is_zero()


def test_perturbed_connection_fails(torus):
    from cotwist.geometry import ConnectionData
    tens = torus.connection.tensor
    table = dict(torus.connection.table)
    table["w+"] = tens.el(("w+", "w-"))
    c2 = ConnectionData(torus.calculus, torus.connection.module, table,
                        torus.connection.sigma)
    assert not c2.torsion(c2.module.el("w+")).is_zero()
    assert not c2.metric_compat(torus.metric).is_zero()


def test_hermitian_from_real_values(torus):
    h = torus.hermitian
    O1 = h.module
    minus_two = Vec.single(12, (0, 0), -2)
    assert h.pair(O1.el("w+"), h.ebar.el(("bar", "w+"))) == minus_two
    assert h.pair(O1.el("w+"), h.ebar.el(("bar", "w-"))).is_zero()
    assert h.pair(O1.el("w-"), h.ebar.el(("bar", "w-"))) == minus_two
    # conjugate symmetry on a weighted sample
    B = torus.comodule
    x = O1.from_b(B.el((1, 0)), "w+")
    y = O1.from_b(B.el((0, 1)), "w-")
    lhs = B.star_elem(h.pair(y, conj_of(O1, x)))
    rhs = h.pair(x, conj_of(O1, y))
    assert lhs == rhs


def test_split_hermitian_blocks(torus):
    h1, h2 = split_hermitian(torus.hermitian, torus.complex_structure)
    assert h1.module.basis == ["w+"]
    assert h2.module.basis == ["w-"]
    assert h1.is_invertible() and h2.is_invertible()


def test_singular_hermitian_table_is_not_invertible(torus):
    # both conjugate basis elements pair only with w+: rank 1
    order = torus.hopf.scalar_order
    table = {("bar", i): Vec.single(order, ((0, 0), ("dual", "w+")), c)
             for i, c in (("w+", 1), ("w-", 2))}
    assert torus.hermitian.is_invertible()
    assert not HermitianData(torus.calculus, torus.hermitian.module, table).is_invertible()


def test_split_refuses_diamond_violation(torus):
    broken = {k: v.copy() for k, v in torus.hermitian.table.items()}
    broken[("bar", "w+")].add_term(((0, 0), ("dual", "w-")), Cyc.one(12))
    h = HermitianData(torus.calculus, torus.hermitian.module, broken)
    with pytest.raises(DiamondViolation):
        split_hermitian(h, torus.complex_structure)


def test_conjugate_connection(torus):
    ebar, tens, nt = conj_connection(torus.connection)
    O1 = torus.connection.module
    # nabla w = 0 implies tilde-nabla (w bar) = 0 on the basis
    for i in O1.basis:
        assert nt(ebar.el(("bar", i))).is_zero()
    # right Leibniz on a sample
    B = torus.comodule
    x = O1.from_b(B.el((1, -1)), "w+")
    b = B.el((0, 1))
    xbar = conj_of(O1, x)
    lhs = nt(ebar.rmul(xbar, b))
    rhs = tens.rmul(nt(xbar), b) + tens.pure(
        xbar, torus.calculus.d(torus.calculus.from_b(b)))
    assert lhs == rhs


def test_chern_solver_flat(torus):
    h1, h2 = torus.hermitian_splits
    ch = chern_solve(torus.holo_10, h1, coeff_box=1)
    assert ch.table["w+"].is_zero()
    ok, wit = chern_conditions_hold(torus.holo_10, h1, ch)
    assert ok, wit
    ch0 = chern_solve(torus.holo_10, h1, coeff_box=0)
    assert ch0.table["w+"] == ch.table["w+"]
    cho = chern_solve(torus.holo_01, h2, coeff_box=1)
    assert cho.table["w-"].is_zero()


def test_chern_scale_invariance(torus):
    # scaling H by 2 yields the same Chern connection here (d of constants = 0)
    h1, _ = torus.hermitian_splits
    scaled = HermitianData(
        torus.calculus, h1.module,
        {k: v.scale(2) for k, v in h1.table.items()})
    ch = chern_solve(torus.holo_10, scaled, coeff_box=1)
    assert ch.table["w+"].is_zero()


def test_chern_no_solution_witness(torus):
    # an off-diagonal Hermitian table that is incompatible with delbar
    order = torus.hopf.scalar_order
    h1, _ = torus.hermitian_splits
    bad_table = {("bar", "w+"): h1.table[("bar", "w+")].copy()}
    bad_table[("bar", "w+")].add_term(((1, 0), ("dual", "w+")), Cyc.one(order))
    bad = HermitianData(torus.calculus, h1.module, bad_table)
    with pytest.raises((ChernNoSolution, ChernNotUnique)):
        chern_solve(torus.holo_10, bad, coeff_box=0)


def test_twisted_metric_and_connection(world, nct):
    assert world.metric.dagger(world.metric.g) == world.metric.g  # real
    assert world.connection.torsion(
        world.calculus.module(1).from_b(world.comodule.el((1, 2)), "w-")).is_zero()
    assert world.connection.metric_compat(world.metric).is_zero()


def test_twisted_hermitian_routes_agree(world):
    other = hermitian_from_real(world.metric)
    for k in world.hermitian.table:
        assert world.hermitian.table[k] == other.table[k]


def test_twisted_chern_equals_twisted_untwisted(nct, world):
    h1, h2 = nct.hermitian_splits
    ch10 = chern_solve(nct.holo_10, h1, coeff_box=1)
    h1t, h2t = world.hermitian_splits
    ch10_tw = chern_solve(world.holo_10, h1t, coeff_box=1)
    moved = twist_connection(ch10, nct.data, world.calculus,
                             module_tw=ch10_tw.module)
    for i in ch10_tw.module.basis:
        assert ch10_tw.table[i].pruned() == moved.table[i].pruned()


def test_direct_sum_on_weighted_sample(nct, world):
    cal_tw = world.calculus
    O1 = cal_tw.module(1)
    h1t, h2t = world.hermitian_splits
    ch10 = chern_solve(world.holo_10, h1t, coeff_box=1)
    ch01 = chern_solve(world.holo_01, h2t, coeff_box=1)
    e = O1.from_b(world.comodule.el((2, -1)), "w+") \
        + O1.from_b(world.comodule.el((1, 1)), "w-")
    lhs = world.connection.apply(e)
    plus = ch10.apply(O1.from_b(world.comodule.el((2, -1)), "w+"))
    minus = ch01.apply(O1.from_b(world.comodule.el((1, 1)), "w-"))
    rhs = Vec(cal_tw.scalar_order)
    for part in (plus, minus):
        for (b, (w, t)), c in part.terms.items():
            rhs.add_term((b, (w, t)), c)
    assert lhs == rhs


def test_hermitian_table_edit_reaches_pair():
    # the pairing reads the table the fault and the emitter see
    herm = nc_torus(1, 3).hermitian
    x, ybar = herm.module.el("w+"), herm.ebar.el(("bar", "w+"))
    before = herm.pair(x, ybar)
    assert not before.is_zero()
    herm.table[("bar", "w+")] = herm.table[("bar", "w+")].scale(Cyc.root(3))
    assert herm.pair(x, ybar) == before.scale(Cyc.root(3))
