"""Comodule twisting, the monoidal map phi, conjugates, N and S."""

from cotwist.cyclotomic import Cyc
from cotwist.cocycle import TwistedHopf, bicharacter_cocycle, trivial_cocycle
from cotwist.hopf import GroupAlgebra, fun_s3
from cotwist.modules import (
    CentralBasisModule, ConjugateModule, HomModule, Morphism, SelfComodule,
    TensorModule, conj_of, hom_apply, unconj)
from cotwist.relhopf import (
    TwistedComodule, TwistedModule, conj_twist_iso, conj_twist_iso_inv,
    hom_twist_iso, phi_inv_map, phi_map, tensor_map_pair, twist_tensor_morphism)
from cotwist.vectors import Vec

# the theta cocycle at theta = 1/3 in Q(zeta_12): exponent 12 theta (m1 n0 - m0 n1)
THETA13 = [[0, -4], [4, 0]]


def conj_twist_fake_identity(_data, GE, elem):
    """The deliberately wrong 'identity' comparison map (Vbar omitted)."""
    return elem.apply(lambda key: conj_of(GE.inner, unconj(GE, Vec.single(elem.order, key))))


def torus_setup():
    A = GroupAlgebra(2, scalar_order=12)
    B = SelfComodule(A)
    data = bicharacter_cocycle(A, THETA13)
    Atw = TwistedHopf(A, data)
    Btw = TwistedComodule(B, data, Atw)
    return A, B, data, Atw, Btw


X, Y = (1, 0), (0, 1)


def test_twisted_product_commutation():
    A, B, data, Atw, Btw = torus_setup()
    z3 = Cyc.root(3)
    xy = B.mult_elem(B.el(X), B.el(Y))
    x_g_y = Btw.mult_elem(Btw.el(X), Btw.el(Y))
    y_g_x = Btw.mult_elem(Btw.el(Y), Btw.el(X))
    assert x_g_y == xy.scale(z3 ** 2)  # zeta_3^{-1} x y
    assert y_g_x == xy.scale(z3)
    assert y_g_x == x_g_y.scale(z3 ** 2)


def test_twisted_star_collapses_on_torus():
    A, B, data, Atw, Btw = torus_setup()
    for lab in [X, Y, (2, -1), (-3, 2)]:
        assert Btw.star(lab) == B.star(lab)


def test_trivial_twist_is_identity():
    A = fun_s3()
    B = SelfComodule(A)
    data = trivial_cocycle(A)
    Atw = TwistedHopf(A, data)
    Btw = TwistedComodule(B, data, Atw)
    for a in A.finite_labels():
        for b in A.finite_labels():
            assert Btw.mult(a, b) == B.mult(a, b)
        assert Btw.star(a) == B.star(a)


def test_module_basics_and_conjugate_round_trip():
    A, B, data, Atw, Btw = torus_setup()
    O1 = CentralBasisModule(B, ["w+", "w-"])
    O1.check_coinvariant_basis()
    x = O1.from_b(B.el((2, 1)), "w+") + O1.el("w-", Cyc.root(12, 7))
    O1bar = ConjugateModule(O1)
    assert unconj(O1, conj_of(O1, x)) == x
    # b.(m bar) = (m b*)bar
    b = B.el((1, 1))
    lhs = O1bar.lmul(b, conj_of(O1, x))
    rhs = conj_of(O1, O1.rmul(x, B.star_elem(b)))
    assert lhs == rhs


def test_hopf_module_compatibility_sampled():
    A, B, data, Atw, Btw = torus_setup()
    O1 = CentralBasisModule(B, ["w+", "w-"])
    e = O1.from_b(B.el((1, -2)), "w+")
    a, b = B.el((1, 0)), B.el((0, 1))
    lhs = O1.coact(O1.rmul(O1.lmul(a, e), b))
    rhs = Vec(O1.scalar_order)
    for (a1, b1), c1 in B.coact_elem(a).terms.items():
        for (a2, b2, i), c2 in O1.coact(e).terms.items():
            for (a3, b3), c3 in B.coact_elem(b).terms.items():
                for aa, ca in A.mult_elem(A.mult(a1, a2), A.el(a3)).terms.items():
                    piece = O1.rmul(O1.lmul(B.el(b1), O1.from_b(B.el(b2), i)), B.el(b3))
                    for (b4, i4), c4 in piece.terms.items():
                        rhs.add_term((aa, b4, i4), c1 * c2 * c3 * ca * c4)
    assert lhs == rhs


def test_twisted_module_actions_on_coinvariant_basis():
    A, B, data, Atw, Btw = torus_setup()
    O1 = CentralBasisModule(B, ["w+", "w-"])
    G1 = TwistedModule(O1, data, Btw)
    for lab in [X, Y, (1, 1)]:
        assert G1.r_act("w+", lab) == Vec.single(12, (lab, "w+"))
        assert G1.l_to_r(lab, "w+") == Vec.single(12, ("w+", lab))
    # b._g (x . w+) picks up the bicharacter through the coefficient weight
    xw = G1.from_b(B.el(X), "w+")
    got = G1.lmul(B.el(Y), xw)
    yx = Btw.mult_elem(Btw.el(Y), Btw.el(X))
    assert got == G1.from_b(yx, "w+")


def test_phi_on_weighted_tensors():
    A, B, data, Atw, Btw = torus_setup()
    O1 = CentralBasisModule(B, ["w+", "w-"])
    G1 = TwistedModule(O1, data, Btw)
    T_unt = TensorModule(O1, O1)
    T_tw = TensorModule(G1, G1)
    xw = G1.from_b(B.el(X), "w+")
    yw = G1.from_b(B.el(Y), "w-")
    tw_tensor = T_tw.pure(xw, yw)
    moved = phi_map(data, T_tw, T_unt, tw_tensor)
    unt_tensor = T_unt.pure(O1.from_b(B.el(X), "w+"), O1.from_b(B.el(Y), "w-"))
    # phi(x w+ (x) y w-) = gamma((1,0),(0,1)) x w+ (x) y w- = zeta3^-1 (...)
    assert moved == unt_tensor.scale(Cyc.root(3, 2))
    # phi and phi^-1 invert each other
    back = phi_inv_map(data, T_tw, T_unt, moved)
    assert back == tw_tensor
    basisel = T_unt.el(("w+", "w+"))
    assert phi_map(data, T_tw, T_unt, basisel) == basisel


def test_twist_flip_morphism_on_basis():
    A, B, data, Atw, Btw = torus_setup()
    O1 = CentralBasisModule(B, ["w+", "w-"])
    G1 = TwistedModule(O1, data, Btw)
    T_unt = TensorModule(O1, O1)
    T_tw = TensorModule(G1, G1)
    flip = Morphism(T_unt, T_unt,
                    {(i, j): T_unt.el((j, i)) for (i, j) in T_unt.basis})
    flip_tw = twist_tensor_morphism(flip, data, T_tw, T_tw)
    for key in T_tw.basis:
        i, j = key
        assert flip_tw.table[key] == T_tw.el((j, i))


def test_round_trip_module_tables():
    A, B, data, Atw, Btw = torus_setup()
    O1 = CentralBasisModule(B, ["w+", "w-"])
    G1 = TwistedModule(O1, data, Btw)
    data_bar = data.inverse_data(Atw)
    Bback = TwistedComodule(Btw, data_bar, TwistedHopf(Atw, data_bar))
    G1back = TwistedModule(G1, data_bar, Bback)
    for lab in [X, Y, (2, -1)]:
        for i in O1.basis:
            assert G1back.r_act(i, lab) == O1.r_act(i, lab)
            assert G1back.l_to_r(lab, i) == O1.l_to_r(lab, i)
        for lab2 in [X, Y]:
            assert Bback.mult(lab, lab2) == B.mult(lab, lab2)
        assert Bback.star(lab) == B.star(lab)


def test_conj_twist_iso_identity_on_torus_and_inverse():
    A, B, data, Atw, Btw = torus_setup()
    O1 = CentralBasisModule(B, ["w+", "w-"])
    G1 = TwistedModule(O1, data, Btw)
    barG1 = ConjugateModule(G1)
    wbar = barG1.el(("bar", "w+"))
    assert conj_twist_iso(data, G1, wbar) == wbar.copy()  # same key shape
    x = conj_of(G1, G1.from_b(Btw.el((2, 1)), "w+"))
    fwd = conj_twist_iso(data, G1, x)
    back = conj_twist_iso_inv(data, G1, fwd)
    assert back == x


def test_conj_twist_fake_identity_differs_for_nonskew():
    A = GroupAlgebra(0, (5, 5), scalar_order=5)
    B = SelfComodule(A)
    data = bicharacter_cocycle(A, [[0, 1], [0, 0]])
    Atw = TwistedHopf(A, data)
    Btw = TwistedComodule(B, data, Atw)
    E = CentralBasisModule(B, ["e"])
    GE = TwistedModule(E, data, Btw)
    # an element with weight (1,2): Vbar((1,2)) = zeta5^{2} != 1
    x = conj_of(GE, GE.from_b(Btw.el((1, 2)), "e"))
    real = conj_twist_iso(data, GE, x)
    fake = conj_twist_fake_identity(data, GE, x)
    assert real != fake
    # and conj_twist_iso still inverts
    assert conj_twist_iso_inv(data, GE, real) == x


def test_hom_twist_iso_trivial_cocycle_fun_s3():
    A = fun_s3()
    B = SelfComodule(A)
    data = trivial_cocycle(A)
    E = CentralBasisModule(B, ["e"])
    H = HomModule(E)
    # f = the dual functional weighted by a delta
    f = H.from_b(B.el(A.finite_labels()[2]), ("dual", "e"))
    ev = hom_twist_iso(data, H, f)
    for g in A.finite_labels():
        v = E.from_b(B.el(g), "e")
        assert ev(v) == hom_apply(H, f, v)


def test_tensor_map_pair_and_hom_apply():
    A, B, data, Atw, Btw = torus_setup()
    O1 = CentralBasisModule(B, ["w+", "w-"])
    T = TensorModule(O1, O1)
    sw = tensor_map_pair(
        T, T, lambda v: v.map_keys(lambda k: (k[0], "w-" if k[1] == "w+" else "w+")),
        lambda v: v, T.pure(O1.from_b(B.el(X), "w+"), O1.el("w-")))
    assert sw == T.pure(O1.from_b(B.el(X), "w-"), O1.el("w-"))
    H = HomModule(O1)
    f = H.el(("dual", "w+"))
    assert hom_apply(H, f, O1.from_b(B.el(Y), "w+")) == B.el(Y)
    assert hom_apply(H, f, O1.el("w-")).is_zero()


def test_hexagon_fails_with_fake_identity_for_N():
    # On a non-skew bicharacter model, substituting the bare identity for
    # the conjugation transport breaks the bar-functor hexagon.
    from cotwist.relhopf import upsilon
    from cotwist.modules import TensorModule

    A = GroupAlgebra(0, (5, 5), scalar_order=5)
    B = SelfComodule(A)
    data = bicharacter_cocycle(A, [[0, 1], [0, 0]])
    Btw = TwistedComodule(B, data, TwistedHopf(A, data))
    E = CentralBasisModule(B, ["e"])
    F = CentralBasisModule(B, ["f"])
    GE = TwistedModule(E, data, Btw)
    GF = TwistedModule(F, data, Btw)
    T_unt = TensorModule(E, F)
    T_tw = TensorModule(GE, GF)
    GT = TwistedModule(T_unt, data, Btw)
    T_bars_tw = TensorModule(ConjugateModule(GF), ConjugateModule(GE))
    T_bars_unt = TensorModule(ConjugateModule(F), ConjugateModule(E))
    GFbar = TwistedModule(ConjugateModule(F), data, Btw)
    GEbar = TwistedModule(ConjugateModule(E), data, Btw)
    T_gbar = TensorModule(GFbar, GEbar)

    def routes(n_map):
        t = GT.from_b(Btw.el((1, 2)), ("e", "f"))
        xbar = conj_of(GT, t)
        inner = unconj(GT, xbar)
        moved = phi_inv_map(data, T_tw, T_unt, inner)
        r1 = conj_of(T_tw, moved)
        r1 = upsilon(T_tw, T_bars_tw, r1)
        r1 = tensor_map_pair(
            T_bars_tw, T_gbar,
            lambda v: n_map(data, GF, v),
            lambda v: n_map(data, GE, v), r1)
        r2 = n_map(data, GT, xbar)
        r2 = upsilon(T_unt, T_bars_unt, r2)
        r2 = phi_inv_map(data, T_gbar, T_bars_unt, r2)
        return r1, r2

    good1, good2 = routes(conj_twist_iso)
    assert good1 == good2
    bad1, bad2 = routes(conj_twist_fake_identity)
    assert bad1 != bad2


def _four_loop_coaction(mod, elem):
    """delta(elem) by the four nested loops over the element's terms that the
    per-key coaction table replaced."""
    out = Vec(mod.scalar_order)
    for (b, i), c in elem.terms.items():
        for (a1, b1), c1 in mod.base.coact(b).terms.items():
            for (a2, b2, i2), c2 in mod.coact_basis(i).terms.items():
                for a3, ca in mod.base.hopf.mult(a1, a2).terms.items():
                    for b3, cb in mod.base.mult(b1, b2).terms.items():
                        out.add_term((a3, b3, i2), c * c1 * c2 * ca * cb)
    return out


class WeightedBasisModule(CentralBasisModule):
    """A central basis whose coaction carries a coefficient other than 1
    (so not coinvariant): it only feeds the coaction formula."""

    def coact_basis(self, i):
        return super().coact_basis(i).scale(Cyc.root(12, 5) if i == "w+" else 2)


def test_coaction_extends_a_memoised_per_key_table():
    A, B, data, Atw, Btw = torus_setup()
    S3 = SelfComodule(fun_s3(12))
    e, _, _, c, _, t = S3.hopf.finite_labels()
    O1, P1 = CentralBasisModule(B, ["w+", "w-"]), CentralBasisModule(S3, ["w+", "w-"])
    W1 = WeightedBasisModule(S3, ["w+", "w-"])
    for mod, labels in ((O1, [X, Y, (2, -1)]), (TensorModule(O1, O1), [X, (1, 1)]),
                        (TwistedModule(O1, data, Btw), [X, (1, 1)]),
                        (P1, [e, c, t]), (TensorModule(P1, P1), [c, t]),
                        (W1, [e, c, t]), (TensorModule(W1, P1), [c, t])):
        elems = [mod.from_b(mod.base.el(l), i) for l in labels for i in mod.basis]
        x = elems[0].scale(Cyc.root(12, 5)) + elems[-1] + elems[1].scale(-2)
        for elem in [*elems, x, x + x.scale(-1)]:
            assert mod.coact(elem) == _four_loop_coaction(mod, elem)
        # a unit key's coaction is the memoised table entry itself
        assert all(mod.coact(elem) is mod.coact(elem) for elem in elems)
