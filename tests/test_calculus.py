"""Calculus layer: torus tables, twisting, complex structure, holomorphic data."""

from fractions import Fraction

import pytest

from cotwist.calculus import (
    Calculus, NotFactorizable, factorization_inverse, lefschetz_bijective)
from cotwist.cyclotomic import Cyc
from cotwist.models import classical_torus, nc_torus, twist_world
from cotwist.vectors import Vec


@pytest.fixture(scope="module")
def torus():
    # order 12 so frozen scalars match the nc_torus(1,3) field
    return classical_torus(order=12)


@pytest.fixture(scope="module")
def nct():
    return nc_torus(1, 3)


@pytest.fixture(scope="module")
def nct_world(nct):
    return twist_world(nct)


def name(k):
    return f"{k[0]}.{k[1]}"


def test_d_on_monomials(torus):
    cal = torus.calculus
    B = torus.comodule
    # d(x^m y^n) = x^m y^n ((m - i n)/2 w+ + (m + i n)/2 w-)
    i = Cyc.i(12)
    for (m, n) in [(1, 0), (0, 1), (2, -3)]:
        df = cal.d(cal.from_b(B.el((m, n))))
        want = Vec(12)
        want.add_term(((m, n), "w+"), (Cyc.rational(m, 12) - i * n) * Fraction(1, 2))
        want.add_term(((m, n), "w-"), (Cyc.rational(m, 12) + i * n) * Fraction(1, 2))
        assert df == want


def test_w1_w2_change_of_basis(torus):
    # w1 = (w+ + w-)/2 and w2 = (w+ - w-)/(2i) satisfy w1^w2 = (i/2) vol
    cal = torus.calculus
    O1 = cal.module(1)
    i = Cyc.i(12)
    w1 = (O1.el("w+") + O1.el("w-")).scale(Fraction(1, 2))
    w2 = (O1.el("w+") - O1.el("w-")).scale((i * 2).inverse())
    w12 = cal.wedge(w1, w2)
    want = cal.module(2).el("vol").scale(i * Fraction(1, 2))
    assert w12 == want
    # and kappa = -2 w1 ^ w2
    assert torus.kappa == w12.scale(-2)


def test_star_is_involutive_antimultiplicative(torus):
    cal = torus.calculus
    B = torus.comodule
    w = cal.module(1).from_b(B.el((1, 2)), "w+")
    v = cal.module(1).from_b(B.el((-1, 0)), "w-")
    assert cal.star(cal.star(w)) == w
    lhs = cal.star(cal.wedge(w, v))
    rhs = cal.wedge(cal.star(v), cal.star(w)).scale(-1)
    assert lhs == rhs


def test_bigrade_projections(torus):
    cal, cs = torus.calculus, torus.complex_structure
    B = torus.comodule
    f = cal.module(1).from_b(B.el((1, 1)), "w+") + cal.module(1).from_b(B.el((0, 2)), "w-")
    p10 = cs.proj(f, 1, 0)
    p01 = cs.proj(f, 0, 1)
    assert p10 + p01 == f
    assert cs.proj(p10, 1, 0) == p10
    # star swaps the bigrade
    starred = cal.star(p10)
    assert cs.proj(starred, 0, 1) == starred


def test_del_delbar_split_and_squares(torus):
    cal, cs = torus.calculus, torus.complex_structure
    B = torus.comodule
    for lab in [(1, 0), (0, 1), (2, -1)]:
        f = cal.from_b(B.el(lab))
        assert cs.del_(f) + cs.delbar(f) == cal.d(f)
        assert cs.del_(cs.del_(f)).is_zero()
        assert cs.delbar(cs.delbar(f)).is_zero()
        assert (cs.del_(cs.delbar(f)) + cs.delbar(cs.del_(f))).is_zero()


def test_factorization_inverse_values(torus):
    cal, cs = torus.calculus, torus.complex_structure
    theta, tens = factorization_inverse(cs, (0, 1), (1, 0))
    # w- ^ w+ = -vol, so theta(vol) = -(w- (x) w+); equivalently
    # theta(w1^w2) = (-i/2) w- (x) w+ in the real basis
    img = theta(cal.module(2).el("vol"))
    want = tens.el(("w-", "w+")).scale(-1)
    assert img == want
    i = Cyc.i(12)
    w1w2 = cal.module(2).el("vol").scale(i * Fraction(1, 2))
    img2 = theta(w1w2)
    assert img2 == tens.el(("w-", "w+")).scale(-(i * Fraction(1, 2)))
    # round trip on a weighted sample
    f11 = cal.module(2).from_b(torus.comodule.el((2, 1)), "vol")
    t = theta(f11)
    back = Vec(12)
    for (b, (i2, j2)), c in t.terms.items():
        back = back + cal.wedge(
            cal.module(1).from_b(torus.comodule.el(b), i2), cal.module(1).el(j2)).scale(c)
    assert back == f11


def test_not_factorizable_error(torus):
    cal, cs = torus.calculus, torus.complex_structure
    broken = dict(cal.wedge_table)
    broken[("w-", "w+")] = Vec(12)
    from cotwist.calculus import ComplexStructure
    cal2 = Calculus(cal.base, cal.modules, broken, cal.d_base, cal.d_table, cal.star_table)
    cs2 = ComplexStructure(cal2, cs.bigrade)
    with pytest.raises(NotFactorizable):
        factorization_inverse(cs2, (0, 1), (1, 0))


def test_holomorphic_torus(torus):
    h = torus.holo_10
    B = torus.comodule
    assert h.delbar_table["w+"].is_zero()
    # delbar_E(x w+) = delbar(x) (x) w+ = (x/2) w- (x) w+
    x = B.el((1, 0))
    img = h.delbar_conn(h.module.from_b(x, "w+"))
    want = h.tensor_01.pure(
        Vec.single(12, ((1, 0), "w-"), Fraction(1, 2)), h.module.el("w+"))
    assert img == want
    assert h.curvature("w+").is_zero()
    # opposite structure annihilates w-
    assert torus.holo_01.delbar_table["w-"].is_zero()


def test_twisted_wedge_bicharacter(nct, nct_world):
    cal_tw = nct_world.calculus
    B = nct.comodule
    Btw = nct_world.comodule
    # (x w+) ^_g (y w-) = zeta3^{-1} xy w+ ^ w-
    xw = cal_tw.module(1).from_b(Btw.el((1, 0)), "w+")
    yw = cal_tw.module(1).from_b(Btw.el((0, 1)), "w-")
    got = cal_tw.wedge(xw, yw)
    want = cal_tw.module(2).from_b(B.el((1, 1)), "vol").scale(Cyc.root(3, 2))
    assert got == want
    # coinvariant basis forms multiply untwisted
    assert cal_tw.wedge(cal_tw.basis_form("w+"), cal_tw.basis_form("w-")) \
        == cal_tw.module(2).el("vol")


def test_twisted_leibniz(nct, nct_world):
    cal_tw = nct_world.calculus
    Btw = nct_world.comodule
    b = Btw.el((1, 0))
    w = cal_tw.module(1).from_b(Btw.el((0, 1)), "w+")
    lhs = cal_tw.d(cal_tw.module(1).lmul(b, w))
    db = cal_tw.d(cal_tw.from_b(b))
    rhs = cal_tw.wedge(db, w) + cal_tw.module(2).lmul(b, cal_tw.d(w))
    assert lhs == rhs


def test_twisted_complex_structure_star_swap(nct, nct_world):
    cal_tw, cs_tw = nct_world.calculus, nct_world.complex_structure
    Btw = nct_world.comodule
    f = cal_tw.module(1).from_b(Btw.el((2, 1)), "w+")
    starred = cal_tw.star(f)
    assert cs_tw.proj(starred, 0, 1) == starred
    assert not starred.is_zero()


def test_twisted_holomorphic_curvature_zero(nct_world):
    for h in (nct_world.holo_10, nct_world.holo_01):
        for i in h.module.basis:
            assert h.curvature(i).is_zero()


def test_kahler_checks(torus, nct_world):
    kappa = torus.kappa
    cal = torus.calculus
    assert cal.star(kappa) == kappa
    assert cal.d(kappa).is_zero()
    assert lefschetz_bijective(cal, kappa, 0)
    # twisted layer
    cal_tw = nct_world.calculus
    k_tw = nct_world.kappa
    assert cal_tw.d(k_tw).is_zero()
    assert cal_tw.star(k_tw) == k_tw
    assert lefschetz_bijective(cal_tw, k_tw, 0)


def test_lefschetz_not_bijective_for_zero_kappa(torus):
    assert not lefschetz_bijective(torus.calculus, Vec(12), 0)


def test_degree_is_read_from_basis_names(torus):
    world = twist_world(torus)
    for cal in (torus.calculus, world.calculus):
        for k, mod in cal.modules.items():
            for n in mod.basis:
                assert cal.degree(cal.module(k).el(n)) == k
                assert cal.degree(mod.from_b(cal.base.el((1, -2)), n)) == k
        assert cal.degree(Vec(12)) is None


def test_d_and_star_are_additive_across_degrees(torus):
    cal = torus.calculus
    f0 = cal.from_b(torus.comodule.el((2, 1)))
    f1 = cal.module(1).from_b(torus.comodule.el((1, -1)), "w+")
    mixed = f0 + f1
    assert cal.d(mixed) == cal.d(f0) + cal.d(f1)
    assert not cal.d(mixed).is_zero()
    assert cal.star(mixed) == cal.star(f0) + cal.star(f1)


def test_wedge_refuses_a_mixed_degree_factor(torus):
    cal = torus.calculus
    mixed = cal.from_b(torus.comodule.el((1, 0))) + cal.basis_form("w+")
    with pytest.raises(ValueError, match="spans degrees"):
        cal.degree(mixed)
    with pytest.raises(ValueError, match="spans degrees"):
        cal.wedge(mixed, cal.basis_form("w-"))
    with pytest.raises(ValueError, match="spans degrees"):
        cal.wedge(cal.basis_form("w-"), mixed)


def test_calculus_refuses_a_name_in_two_degrees(torus):
    cal = torus.calculus
    modules = dict(cal.modules)
    modules[2] = cal.module(1)
    with pytest.raises(ValueError, match="appears in degrees"):
        Calculus(cal.base, modules, cal.wedge_table, cal.d_base, cal.d_table, cal.star_table)
