"""Cocycle calculus: convolution, inverses, identities, twisted Hopf algebra."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from cotwist import cocycle, faults
from cotwist.cyclotomic import Cyc
from cotwist.cocycle import (
    CocycleData, NotInvertible, PairFunctional, TwistedHopf, associator, bicharacter_cocycle,
    convolution_inverse, convolve, counit_functional, mixed, sweedler_sum, trivial_cocycle,
    verify_cocycle_identities, verify_unitarity_suite)
from cotwist.hopf import GroupAlgebra, HopfAlgebra, fun_s3
from cotwist.models import finite_bicharacter, fun_group, nc_torus, twist_world
from cotwist.report import Report
from cotwist.suites import run_suite
from cotwist.vectors import Vec

# the theta cocycle at theta = 1/3 in Q(zeta_12): exponent 12 theta (m1 n0 - m0 n1)
THETA13 = [[0, -4], [4, 0]]


def torus_hopf(order=12):
    return GroupAlgebra(2, scalar_order=order)


@pytest.mark.parametrize("p,q", [(1, 3), (1, 5), (2, 5), (-1, 4), (3, 8)])
def test_theta_cocycle_values(p, q):
    bundle = nc_torus(p, q, box=2)
    A, data = bundle.hopf, bundle.data
    order = A.scalar_order
    theta = Fraction(p, q)
    one = Cyc.one(order)
    for m in A.labels_box(2):
        for n in A.labels_box(2):
            # gamma(u_m (x) u_n) = e^{2 pi i theta (m1 n0 - m0 n1)}
            t = theta * (m[1] * n[0] - m[0] * n[1]) * order
            assert t.denominator == 1
            assert data.gamma(m, n) == Cyc.root(order, t.numerator)
        assert data.gamma(m, m) == one
        # Vbar(u_m^*) = 1 by skewness
        assert data.Vbar(A._neg(m)) == one


def test_convolution_of_theta_with_inverse_is_counit():
    A = torus_hopf()
    data = bicharacter_cocycle(A, THETA13)
    conv = convolve(data.gamma, data.gamma_bar, A)
    eps = counit_functional(A)
    for a in A.labels_box(2):
        for b in A.labels_box(2):
            assert conv(a, b) == eps(a, b)


def test_convolution_unit():
    A = fun_s3()
    eps = counit_functional(A)
    psi = PairFunctional(lambda a, b: Cyc.rational(Fraction(1, 2), 1)
                         if a == b else Cyc.zero(1))
    conv = convolve(eps, psi, A)
    for a in A.finite_labels():
        for b in A.finite_labels():
            assert conv(a, b) == psi(a, b)


def test_fun_s3_convolution_is_group_convolution():
    # functionals on Fun(G) x Fun(G) convolve like the group algebra of GxG
    A = fun_s3()
    els = A.finite_labels()
    s, t, u, v = els[1], els[2], els[3], els[4]
    phi = PairFunctional(lambda a, b: Cyc.one(1) if (a, b) == (s, t) else Cyc.zero(1))
    psi = PairFunctional(lambda a, b: Cyc.one(1) if (a, b) == (u, v) else Cyc.zero(1))
    conv = convolve(phi, psi, A)
    for a in els:
        for b in els:
            expected = Cyc.one(1) if (a, b) == (s * u, t * v) else Cyc.zero(1)
            assert conv(a, b) == expected


def test_pair_functional_is_the_memo_of_its_values():
    calls = []
    f = PairFunctional(lambda a, b: calls.append((a, b)) or Cyc.root(6, a * b))
    assert f(2, 3) is Cyc.one(6) and f[(2, 3)] is Cyc.one(6) and f[(1, 1)] is f(1, 1)
    assert calls == [(2, 3), (1, 1)] and dict(f._cache) == {(2, 3): Cyc.one(6), (1, 1): Cyc.root(6)}


def test_pointwise_inverse_and_zero_error():
    A = torus_hopf()
    data = bicharacter_cocycle(A, THETA13)
    for m in A.labels_box(2):
        for n in A.labels_box(2):
            assert data.gamma_bar(m, n) == data.gamma(m, n).inverse()
    broken = PairFunctional(
        lambda a, b: Cyc.zero(12) if (a, b) == ((1, 0), (0, 1)) else data.gamma(a, b))
    bad = convolution_inverse(broken, A)
    with pytest.raises(NotInvertible) as exc:
        bad((1, 0), (0, 1))
    assert exc.value.pair == ((1, 0), (0, 1))


def test_table_solve_on_fun_s3():
    # oracle: delta functional at (s,t) inverts to the delta at (s^-1,t^-1)
    A = fun_s3()
    els = A.finite_labels()
    s, t = els[1], els[4]
    phi = PairFunctional(lambda a, b: Cyc.one(1) if (a, b) == (s, t) else Cyc.zero(1))
    psi = convolution_inverse(phi, A)
    for a in els:
        for b in els:
            expected = Cyc.one(1) if (a, b) == (s.inv(), t.inv()) else Cyc.zero(1)
            assert psi(a, b) == expected


def test_counit_self_inverse_table_solve():
    A = fun_s3()
    eps = counit_functional(A)
    psi = convolution_inverse(eps, A)
    for a in A.finite_labels():
        for b in A.finite_labels():
            assert psi(a, b) == eps(a, b)


def _box_triples(A, box):
    labels = A.labels_box(box)
    return [(a, b, c) for a in labels for b in labels for c in labels]


def test_cocycle_identities_theta():
    A = torus_hopf()
    data = bicharacter_cocycle(A, THETA13)
    rep = Report()
    verify_cocycle_identities(data, A, _box_triples(A, 1), rep)
    assert rep.passed, rep.to_text()


def test_cocycle_identities_trivial_fun_s3_exhaustive():
    A = fun_s3()
    data = trivial_cocycle(A)
    rep = Report()
    verify_cocycle_identities(data, A, _box_triples(A, 0), rep)
    assert rep.passed, rep.to_text()


def test_perturbed_cocycle_fails_with_witness():
    A = torus_hopf()
    data = bicharacter_cocycle(A, THETA13)
    zeta = Cyc.root(3)
    bad_pair = ((1, 0), (0, 1))
    gamma = PairFunctional(
        lambda a, b: data.gamma(a, b) * zeta if (a, b) == bad_pair else data.gamma(a, b))
    gamma_bar = convolution_inverse(gamma, A)
    bad = CocycleData(A, gamma, gamma_bar)
    rep = Report()
    verify_cocycle_identities(bad, A, _box_triples(A, 1), rep)
    failing = {c.check_id for c in rep.failures()}
    assert "cocycle.equation" in failing
    assert any("fails at" in (c.witness or "") for c in rep.failures())


def test_unitarity_suite_theta():
    A = torus_hopf()
    data = bicharacter_cocycle(A, THETA13)
    rep = Report()
    pairs = [(a, b) for a in A.labels_box(1) for b in A.labels_box(1)]
    verify_unitarity_suite(data, A, pairs, rep)
    assert rep.passed, rep.to_text()


def test_unitarity_suite_bicharacter_z5():
    A = GroupAlgebra(0, (5, 5), scalar_order=5)
    data = bicharacter_cocycle(A, [[0, 1], [-1, 0]])
    rep = Report()
    labels = A.finite_labels()[:8]
    pairs = [(a, b) for a in labels for b in labels]
    verify_unitarity_suite(data, A, pairs, rep)
    assert rep.passed, rep.to_text()


def test_scaled_gamma_breaks_unitarity():
    A = torus_hopf()
    data = bicharacter_cocycle(A, THETA13)
    bad_pair = ((1, 0), (0, 1))
    gamma = PairFunctional(
        lambda a, b: data.gamma(a, b) * 2 if (a, b) == bad_pair else data.gamma(a, b))
    gamma_bar = convolution_inverse(gamma, A)
    bad = CocycleData(A, gamma, gamma_bar)
    rep = Report()
    pairs = [(a, b) for a in A.labels_box(1) for b in A.labels_box(1)]
    verify_unitarity_suite(bad, A, pairs, rep)
    failing = {c.check_id for c in rep.failures()}
    assert "unitary.gamma-conjugation" in failing or "unitary.modulus" in failing


def test_twist_cocommutative_collapse():
    A = torus_hopf()
    data = bicharacter_cocycle(A, THETA13)
    tw = TwistedHopf(A, data)
    for a in A.labels_box(2):
        for b in A.labels_box(2):
            assert tw.mult(a, b) == A.mult(a, b)
        assert tw.star(a) == A.star(a)
        assert tw.antipode(a) == A.antipode(a)


def test_trivial_twist_identity():
    A = fun_s3()
    data = trivial_cocycle(A)
    tw = TwistedHopf(A, data)
    for a in A.finite_labels():
        for b in A.finite_labels():
            assert tw.mult(a, b) == A.mult(a, b)
        assert tw.antipode(a) == A.antipode(a)
        assert tw.star(a) == A.star(a)


def test_twisted_antipode_inverse_nontrivial():
    # non-skew bicharacter: V and Vbar are nontrivial, S_g must still invert
    A = GroupAlgebra(0, (5, 5), scalar_order=5)
    data = bicharacter_cocycle(A, [[1, 1], [0, 0]])
    tw = TwistedHopf(A, data)
    for l in A.finite_labels():
        v = tw.el(l)
        assert tw.antipode_inv_elem(tw.antipode_elem(v)) == v
        assert tw.antipode_elem(tw.antipode_inv_elem(v)) == v


def test_twisted_hopf_axioms_nontrivial():
    from cotwist.hopf import verify_hopf_axioms
    A = GroupAlgebra(0, (3, 3), scalar_order=3)
    data = bicharacter_cocycle(A, [[0, 1], [0, 0]])
    tw = TwistedHopf(A, data)
    rep = Report()
    labels = tw.finite_labels()
    pairs = [(a, b) for a in labels for b in labels]
    verify_hopf_axioms(tw, labels, rep, prefix="twisted", pair_samples=pairs)
    assert rep.passed, rep.to_text()


def test_round_trip_recovers_tables():
    A = torus_hopf()
    data = bicharacter_cocycle(A, THETA13)
    tw = TwistedHopf(A, data)
    back = TwistedHopf(tw, data.inverse_data(tw))
    for a in A.labels_box(1):
        for b in A.labels_box(1):
            assert back.mult(a, b) == A.mult(a, b)
        assert back.star(a) == A.star(a)
        assert back.antipode(a) == A.antipode(a)


def test_table_solve_singular_reports_pair():
    A = fun_s3()
    zero = PairFunctional(lambda a, b: Cyc.zero(1))
    with pytest.raises(NotInvertible) as exc:
        convolution_inverse(zero, A)
    assert exc.value.pair is not None


def test_no_inverse_method_without_grouplike_basis_or_finite_labels():
    class InfiniteAlgebra:
        grouplike_basis = False

        def finite_labels(self):
            return None

    with pytest.raises(NotInvertible):
        convolution_inverse(None, InfiniteAlgebra())


@pytest.mark.parametrize("pairing", [
    [[0, Fraction(1, 2)], [0, 0]],   # would give the scalar zeta(3)^1/2
    [[0, 1.5], [0, 0]],              # would give zeta(3)^1.5
    [[0]],                           # too small: the cocycle suites raised IndexError
], ids=["fraction", "float", "1x1"])
def test_malformed_pairing_is_rejected(pairing):
    with pytest.raises(ValueError, match="2x2 matrix of ints"):
        bicharacter_cocycle(GroupAlgebra(0, (3, 3), scalar_order=3), pairing)


# -- the flat Sweedler sum against a nested expansion ----------------------


def nested_sweedler_sum(A, fn, *labels):
    """The reference: one sum per label, innermost over the last label."""
    if not labels:
        return fn()
    total = Cyc.zero(A.scalar_order)
    for x, c in A.sweedler(labels[0], 2).terms.items():
        total = total + c * nested_sweedler_sum(
            A, lambda *rest: fn(*x, *rest), *labels[1:])
    return total


class WeightedCoproduct(HopfAlgebra):
    """Two-leg Sweedler and product tables whose coefficients are 1, 2,
    zeta_3 and a two-term sum, with one zero product.  The third label c is
    grouplike, so the sums of a triple reach c-pairs only through its c legs.
    No Hopf axiom holds: the tables only feed the formulas."""

    scalar_order = 3

    def sweedler(self, label, legs):
        assert legs == 2
        if label == "c":
            return Vec(3, {("c", "c"): 1})
        other = "b" if label == "a" else "a"
        return Vec(3, {(label, label): 1, (label, other): 2, (other, label): Cyc.root(3),
                       (other, other): Cyc(3, {0: 1, 2: Fraction(-1, 2)})})

    def mult(self, l1, l2):
        if "c" in (l1, l2):
            # c times c is c, and c times x or x times c is zeta_3 x
            return Vec(3, {l1 if l2 == "c" else l2: 1 if l1 == l2 else Cyc.root(3)})
        return {("a", "a"): Vec(3, {"a": 2}), ("a", "b"): Vec(3, {"b": Cyc.root(3)}),
                ("b", "a"): Vec(3, {"a": 1, "b": Cyc(3, {0: 1, 2: Fraction(-1, 2)})}),
                ("b", "b"): Vec(3)}[(l1, l2)]

    def unit(self):
        return Vec(3, {"a": 1, "b": 1, "c": 1})

    def counit(self, label):
        return Cyc.rational(int(label == "a"), 3)

    def finite_labels(self):
        return ["a", "b", "c"]


def _leg_values(labels, order):
    """A scalar per leg tuple that tells the tuples and their order apart."""
    index = {l: i for i, l in enumerate(labels)}
    calls = []

    def fn(*legs):
        calls.append(legs)
        k = sum((i + 1) * index[l] for i, l in enumerate(legs))
        return Cyc.rational(Fraction(k + 1, len(legs) + 1), order) + Cyc.root(order, k)
    return fn, calls


@pytest.mark.parametrize("algebra", ["fun_s3", "weighted"])
@pytest.mark.parametrize("count", [0, 1, 2, 3])
def test_flat_sweedler_sum_matches_nested_expansion(algebra, count):
    A = fun_s3() if algebra == "fun_s3" else WeightedCoproduct()
    labels = A.finite_labels() if algebra == "fun_s3" else ["a", "b"]
    fn, calls = _leg_values(labels, A.scalar_order)
    for start in range(len(labels)):
        args = [labels[(start + 2 * i) % len(labels)] for i in range(count)]
        calls.clear()
        flat = sweedler_sum(A, fn, *args)
        flat_calls = list(calls)
        calls.clear()
        assert flat == nested_sweedler_sum(A, fn, *args)
        # one call per term tuple, in the nested loop order
        assert flat_calls == calls
        terms = 1
        for l in args:
            terms *= len(A.sweedler(l, 2).terms)
        assert len(flat_calls) == terms


# -- skip paths on a multi-term basis ---------------------------------------


def _s3_with_gamma_bumped(inverse):
    """fun(S_3) with 1 added to gamma at (c, c) for a 3-cycle c, where the
    trivial gamma vanishes; gammabar kept, or replaced by the new inverse."""
    A = fun_group("s3").hopf
    data = trivial_cocycle(A)
    c = A.finite_labels()[3]
    assert A.label_name(c) == "d[120]" and c * c * c == A.identity
    gamma = PairFunctional(
        lambda a, b: data.gamma(a, b) + 1 if (a, b) == (c, c) else data.gamma(a, b))
    gamma_bar = convolution_inverse(gamma, A) if inverse else data.gamma_bar
    return A, CocycleData(A, gamma, gamma_bar)


# (status, instances, witness) of the four equivalent forms, recorded from the
# nested-closure sums that the flat sums replaced
S3_BUMPED = {
    False: {
        "cocycle.equation": ("fail", 21, "cocycle equation fails at (d[012],d[120],d[120])"),
        # (ii) reads gammabar only, which is still the counit
        "cocycle.equivalent-ii": ("pass", 216, None),
        "cocycle.equivalent-iii": ("fail", 21, "identity (iii) fails at (d[012],d[120],d[120])"),
        "cocycle.equivalent-iv": ("fail", 126, "identity (iv) fails at (d[120],d[120],d[012])"),
    },
    True: {
        "cocycle.equation": ("fail", 21, "cocycle equation fails at (d[012],d[120],d[120])"),
        "cocycle.equivalent-ii": ("fail", 3, "identity (ii) fails at (d[012],d[012],d[120])"),
        "cocycle.equivalent-iii": ("fail", 0, "identity (iii) fails at (d[012],d[012],d[012])"),
        "cocycle.equivalent-iv": ("fail", 0, "identity (iv) fails at (d[012],d[012],d[012])"),
    },
}


@pytest.mark.parametrize("inverse", [False, True])
def test_multi_term_cocycle_fault_witnesses(inverse):
    A, data = _s3_with_gamma_bumped(inverse)
    labels = A.finite_labels()
    rep = Report()
    verify_cocycle_identities(data, A, [(a, b, c) for a in labels for b in labels
                                        for c in labels], rep)
    got = {c.check_id: (c.status, c.instances, c.witness) for c in rep.checks
           if c.check_id in S3_BUMPED[inverse]}
    assert got == S3_BUMPED[inverse]


# -- the pair tables against the nested formulas ----------------------------


def reference_sides(data, A):
    """check id -> (witness name, (g, h, k) -> (lhs, rhs)) of the four
    identities as nested sums over f(ab (x) k) and f(k (x) ab), the formulas
    the pair tables replaced."""
    g, gb = data.gamma, data.gamma_bar

    def left_product(f, a, b, k):
        """f(ab (x) k)"""
        return A.mult(a, b).evaluate(lambda l: f(l, k))

    def right_product(f, k, a, b):
        """f(k (x) ab)"""
        return A.mult(a, b).evaluate(lambda l: f(k, l))

    s = nested_sweedler_sum
    return {
        "cocycle.equation": ("cocycle equation", lambda lg, lh, lk: (
            s(A, lambda g1, g2, h1, h2: g(g1, h1) * left_product(g, g2, h2, lk), lg, lh),
            s(A, lambda h1, h2, k1, k2: g(h1, k1) * right_product(g, lg, h2, k2), lh, lk))),
        "cocycle.equivalent-ii": ("identity (ii)", lambda lg, lh, lk: (
            s(A, lambda g1, g2, h1, h2: left_product(gb, g1, h1, lk) * gb(g2, h2), lg, lh),
            s(A, lambda h1, h2, k1, k2: right_product(gb, lg, h1, k1) * gb(h2, k2), lh, lk))),
        "cocycle.equivalent-iii": ("identity (iii)", lambda lg, lh, lk: (
            s(A, lambda g1, g2, h1, h2, k1, k2: left_product(g, g1, h1, k1)
              * right_product(gb, g2, h2, k2), lg, lh, lk),
            s(A, lambda h1, h2: gb(lg, h1) * g(h2, lk), lh))),
        "cocycle.equivalent-iv": ("identity (iv)", lambda lg, lh, lk: (
            s(A, lambda g1, g2, h1, h2, k1, k2: right_product(g, g1, h1, k1)
              * left_product(gb, g2, h2, k2), lg, lh, lk),
            s(A, lambda h1, h2: g(lg, h2) * gb(h1, lk), lh))),
    }


def reference_identities(data, A, triples):
    """The four reference identities checked through one Report."""
    rep = Report()
    for check_id, (name, sides) in reference_sides(data, A).items():
        def defect(t, name=name, sides=sides):
            lhs, rhs = sides(*t)
            names = ",".join(map(A.label_name, t))
            return f"{name} fails at ({names})" if lhs != rhs else None
        rep.forall(check_id, check_id, triples, defect)
    return {c.check_id: (c.status, c.instances, c.witness) for c in rep.checks}


def _bumped(f, pair, by):
    return PairFunctional(lambda a, b: f(a, b) + by if (a, b) == pair else f(a, b))


def _weighted_perturbations():
    """(gamma, gammabar) pairs that each vanish but at one label pair: both
    sides of a triple vanish unless its legs reach that pair, so the first
    failure moves with it."""
    A = WeightedCoproduct()

    def point(pair, value):
        zero = Cyc.zero(3)
        return PairFunctional(lambda a, b: value if (a, b) == pair else zero)

    two, z = Cyc.rational(2, 3), Cyc.root(3)
    return A, [(point(("a", "c"), two), point(("c", "a"), z)),
               (point(("c", "b"), z), point(("b", "c"), two)),
               (point(("a", "a"), two), point(("b", "b"), two)),
               (point(("c", "c"), z), point(("b", "c"), z))]


def _s3_perturbations():
    """The trivial cocycle of fun(S_3) with gamma, gammabar or both raised at one pair."""
    A = fun_s3()
    base = trivial_cocycle(A)
    e, _, _, c, _, t = A.finite_labels()
    return A, [(_bumped(base.gamma, (c, c), 1), base.gamma_bar),
               (_bumped(base.gamma, (e, t), 2), _bumped(base.gamma_bar, (c, t), 1)),
               (_bumped(base.gamma, (t, c), Fraction(-1, 2)), _bumped(base.gamma_bar, (t, e), 2)),
               (base.gamma, _bumped(base.gamma_bar, (c, c), 1))]


@pytest.mark.parametrize("algebra", ["weighted", "fun_s3"])
def test_pair_tables_match_nested_formulas(algebra):
    A, perturbations = _weighted_perturbations() if algebra == "weighted" else _s3_perturbations()
    labels = A.finite_labels()
    triples = [(a, b, c) for a in labels for b in labels for c in labels]
    witnesses = {}
    for gamma, gamma_bar in perturbations:
        data = CocycleData(A, gamma, gamma_bar)
        rep = Report()
        verify_cocycle_identities(data, A, triples, rep)
        expected = reference_identities(data, A, triples)
        got = {c.check_id: (c.status, c.instances, c.witness) for c in rep.checks
               if c.check_id in expected}
        assert got == expected
        for check_id, (_, _, witness) in expected.items():
            witnesses.setdefault(check_id, set()).add(witness)
    # the perturbations fail each identity at three or more different triples
    assert all(len(w - {None}) >= 3 for w in witnesses.values()), witnesses


# -- the kernels and the grouped twisted product on random tables -----------


# gamma and gammabar values on fun(S_3) over Q(zeta_6): zero, rationals, roots
# of unity and their rational multiples, and one two-term value
S3_VALUES = [Cyc.zero(6), Cyc.one(6), Cyc.rational(-2, 6), Cyc.rational(Fraction(1, 3), 6),
             Cyc.root(6, 1), Cyc.root(6, 5), Cyc(6, {2: Fraction(-3, 2)}), Cyc(6, {0: 1, 1: 2})]


def _table_functional(labels, values):
    table = {(a, b): S3_VALUES[v] for (a, b), v in zip(
        [(a, b) for a in labels for b in labels], values)}
    return PairFunctional(lambda a, b: table[(a, b)])


s3_tables = st.lists(st.integers(0, len(S3_VALUES) - 1), min_size=36, max_size=36)


@settings(max_examples=2, deadline=None)
@given(s3_tables, s3_tables)
def test_kernels_match_nested_sweedler_sums(gamma_values, gamma_bar_values):
    A = fun_s3(6)
    labels = A.finite_labels()
    data = CocycleData(A, _table_functional(labels, gamma_values),
                       _table_functional(labels, gamma_bar_values))
    triples = [(a, b, c) for a in labels for b in labels for c in labels]
    g, gb = data.gamma, data.gamma_bar
    kernels = {"cocycle.equation": associator(A, g, 1, triples),
               "cocycle.equivalent-ii": associator(A, gb, 0, triples),
               "cocycle.equivalent-iii": mixed(A, g, gb, 0, triples),
               "cocycle.equivalent-iv": mixed(A, gb, g, 1, triples)}
    for check_id, (_, reference) in reference_sides(data, A).items():
        got = list(kernels[check_id])
        assert len(got) == len(triples)
        for t, (lhs, rhs) in zip(triples, got):
            want = reference(*t)
            assert (lhs, rhs) == want, (check_id, t)


def apply2_product(T, l1, l2):
    """gamma(h1 (x) k1) h2 k2 gammabar(h3 (x) k3) over every pair of three-leg
    terms, read where h2 k2 != 0: the product formula before the legs were
    grouped by middle label."""
    A, d = T.base, T.data
    return A.sweedler(l1, 3).apply2(A.sweedler(l2, 3), lambda h, k: hk.scale(
        d.gamma(h[0], k[0]) * d.gamma_bar(h[2], k[2]))
        if (hk := A.mult(h[1], k[1])).terms else hk)


@settings(max_examples=6, deadline=None)
@given(s3_tables, s3_tables)
def test_grouped_twisted_product_matches_apply2_formula(gamma_values, gamma_bar_values):
    A = fun_s3(6)
    labels = A.finite_labels()
    T = TwistedHopf(A, CocycleData(A, _table_functional(labels, gamma_values),
                                   _table_functional(labels, gamma_bar_values)))
    for a in labels:
        for b in labels:
            assert T.mult(a, b) == apply2_product(T, a, b)


def test_twisted_product_on_a_grouplike_basis_is_the_shared_product():
    bundle = finite_bicharacter(3, pairing="upper")
    A = bundle.hopf
    T = TwistedHopf(A, bundle.data)
    labels = A.finite_labels()
    for a in labels:
        for b in labels:
            assert T.mult(a, b) is A.mult(a, b)
    # a nontrivial scale builds a new Vec, equal to the formula
    scaled = TwistedHopf(A, CocycleData(A, bundle.data.gamma, bundle.data.gamma))
    for a in labels:
        for b in labels:
            assert scaled.mult(a, b) == apply2_product(scaled, a, b)


# -- the grouplike branches against the Sweedler definitions -----------------


def _grouplike_worlds():
    """(name, twisted algebra, labels) on a grouplike basis: nc_torus(1, 5) on
    its box-2 labels and finite_bicharacter(5) on all of its labels, with
    gamma and gammabar as built, and with gammabar times zeta_N at one pair,
    so gamma gammabar != 1 there; the cocycle-inverse-corrupted fault, whose
    gammabar is times zeta_3 at one pair, likewise.  Each also as the back
    world, whose base is the twisted algebra: with gammabar scaled, that base
    is noncommutative."""
    worlds = []
    for name, bundle in (("nc_torus(1,5)", nc_torus(1, 5)),
                         ("finite_bicharacter(5)", finite_bicharacter(5))):
        data = bundle.data
        pair, root = ((0, 1), (1, 0)), Cyc.root(bundle.hopf.scalar_order)
        bar = PairFunctional(lambda a, b, gb=data.gamma_bar, pair=pair, root=root:
                             gb(a, b) * root if (a, b) == pair else gb(a, b))
        scaled = bundle.replace(data=CocycleData(bundle.hopf, data.gamma, bar))
        worlds += [(name, bundle), (name + " gammabar scaled", scaled)]
    fault = next(f for f in faults.FAULTS if f.name == "cocycle-inverse-corrupted")
    worlds.append((fault.name, fault.build()))
    out = []
    for name, bundle in worlds:
        for world, T in ((name, twist_world(bundle).hopf),
                         (name + " back world", twist_world(twist_world(bundle)).hopf)):
            out.append((world, T, T.labels_box(2)))
    return out


def nested_twisted_product(T, l1, l2):
    """gamma(h1 (x) k1) h2 k2 gammabar(h3 (x) k3), summed term by term over the
    three-leg Sweedler sums of the base."""
    A, d = T.base, T.data
    out = A.zero()
    for h, c in A.sweedler(l1, 3).terms.items():
        for k, e in A.sweedler(l2, 3).terms.items():
            out = out + A.mult(h[1], k[1]).scale(
                c * e * d.gamma(h[0], k[0]) * d.gamma_bar(h[2], k[2]))
    return out


def term_list_product(A, fn, *labels):
    """fn summed over the product of the labels' two-leg term lists."""
    total = Cyc.zero(A.scalar_order)
    for legs in product(*[A.sweedler(l, 2).terms.items() for l in labels]):
        c = Cyc.one(A.scalar_order)
        for _, d in legs:
            c = c * d
        total = total + c * fn(*[x for k, _ in legs for x in k])
    return total


GROUPLIKE_WORLDS = _grouplike_worlds()


@pytest.mark.parametrize("name, T, labels", GROUPLIKE_WORLDS,
                         ids=[name for name, _, _ in GROUPLIKE_WORLDS])
def test_grouplike_branches_match_the_sweedler_definitions(name, T, labels):
    assert T.grouplike_basis
    g, gb = T.data.gamma, T.data.gamma_bar
    one = Cyc.one(T.scalar_order)
    scaled = {(a, b) for a in labels for b in labels if g(a, b) * gb(a, b) != one}
    assert len(scaled) == ("scaled" in name or "corrupted" in name), scaled
    for a in labels:
        for b in labels:
            assert T.mult(a, b) == nested_twisted_product(T, a, b), (a, b)
    # gamma * gammabar, which is not the counit at a scaled pair
    conv = lambda a1, a2, b1, b2: g(a1, b1) * gb(a2, b2)  # noqa: E731
    fn, calls = _leg_values(labels, T.scalar_order)
    n = len(labels)
    for i, a in enumerate(labels):
        for args in [(a,)] + [(a, b) for b in labels] + [(a, labels[(i + 1) % n], labels[i - 3])]:
            for A in (T, T.base):
                calls.clear()
                flat = sweedler_sum(A, fn, *args)
                flat_calls = list(calls)
                calls.clear()
                assert flat == term_list_product(A, fn, *args) and flat_calls == calls, args
                if len(args) == 2:
                    assert sweedler_sum(A, conv, *args) == term_list_product(A, conv, *args)


# -- exponent rows on a finite grouplike basis -------------------------------


class UnlistedGroupAlgebra(GroupAlgebra):
    """A finite group algebra that does not list its labels: the cocycle
    identities take the Sweedler kernels on every triple of its labels."""

    def finite_labels(self):
        return None


def _z2(n):
    """C[Z_n^2] twice, listing its labels and not, with every triple of its labels."""
    A = GroupAlgebra(0, (n, n), scalar_order=n)
    return A, UnlistedGroupAlgebra(0, (n, n), scalar_order=n), list(
        product(A.finite_labels(), repeat=3))


def _identity_results(A, gamma, gamma_bar, triples):
    rep = Report()
    verify_cocycle_identities(CocycleData(A, gamma, gamma_bar), A, triples, rep)
    return {c.check_id: (c.status, c.instances, c.witness) for c in rep.checks}


@st.composite
def z2_exponent_tables(draw):
    """n, then exponent lists over the label pairs of Z_n^2 for gamma (a
    bicharacter or random) and gammabar (minus gamma, or random), each raised
    at up to three pairs."""
    n = draw(st.integers(2, 5))
    labels = GroupAlgebra(0, (n, n)).finite_labels()
    pairs = len(labels) ** 2
    exponent = st.integers(0, n - 1)

    def raised(table):
        for i, by in draw(st.lists(st.tuples(st.integers(0, pairs - 1), exponent), max_size=3)):
            table[i] += by
        return table

    if draw(st.booleans()):
        p = draw(st.lists(exponent, min_size=4, max_size=4))
        gamma = [p[0] * a0 * b0 + p[1] * a0 * b1 + p[2] * a1 * b0 + p[3] * a1 * b1
                 for a0, a1 in labels for b0, b1 in labels]
    else:
        gamma = draw(st.lists(exponent, min_size=pairs, max_size=pairs))
    gamma_bar = [-e for e in gamma] if draw(st.booleans()) else draw(
        st.lists(exponent, min_size=pairs, max_size=pairs))
    return n, raised(gamma), raised(gamma_bar)


def _root_functional(labels, n, exponents):
    table = {pair: Cyc.root(n, e) for pair, e in zip(product(labels, repeat=2), exponents)}
    return PairFunctional(lambda a, b: table[(a, b)])


# The two examples raise gamma, then gammabar, at the one pair (u(0,0), u(1,1))
# of Z_2^2: the first failing row of each identity then fails at its last k
# alone, which a row test that skips the last entry misses; random tables
# rarely put a failure there.
RAISED_AT_THE_LAST_K = [0, 0, 0, 1] + [0] * 12


# no shrink phase: each example at n = 5 runs the kernels over 15,625 triples,
# so shrinking a failure took minutes; the failing example is reported as drawn
@settings(max_examples=12, deadline=None, phases=[p for p in Phase if p != Phase.shrink])
@given(z2_exponent_tables())
@example((2, RAISED_AT_THE_LAST_K, [0] * 16))
@example((2, [0] * 16, RAISED_AT_THE_LAST_K))
def test_exponent_rows_match_the_kernels(tables):
    n, gamma_exponents, gamma_bar_exponents = tables
    A, unlisted, triples = _z2(n)
    labels = A.finite_labels()
    gamma = _root_functional(labels, n, gamma_exponents)
    gamma_bar = _root_functional(labels, n, gamma_bar_exponents)
    assert cocycle._exponent_rows(CocycleData(A, gamma, gamma_bar), A, triples) is not None
    got = _identity_results(A, gamma, gamma_bar, triples)
    assert got == _identity_results(unlisted, gamma, gamma_bar, triples)
    reference = reference_identities(CocycleData(A, gamma, gamma_bar), A, triples)
    assert {check_id: got[check_id] for check_id in reference} == reference


def test_a_value_that_is_no_shared_root_takes_the_kernels(monkeypatch):
    A, unlisted, triples = _z2(3)
    gamma = bicharacter_cocycle(A, [[0, 1], [-1, 0]]).gamma
    pair = ((1, 0), (0, 2))
    scaled = PairFunctional(lambda a, b: gamma(a, b) * 2 if (a, b) == pair else gamma(a, b))
    gamma_bar = convolution_inverse(scaled, A)
    expected = _identity_results(unlisted, scaled, gamma_bar, triples)
    assert expected["cocycle.equation"][0] == "fail"
    calls = []
    monkeypatch.setattr(cocycle, "associator", lambda *args: calls.append(args) or associator(*args))
    assert _identity_results(A, scaled, gamma_bar, triples) == expected
    assert len(calls) == 2


# (status, instances, witness) of every check when gammabar raises at one pair,
# recorded from the Sweedler kernels before exponent rows
RAISING_GAMMA_BAR = {
    "cocycle.equation": ("pass", 729, None),
    "cocycle.equivalent-ii": (
        "fail", 51, "exception NotInvertible: gamma vanishes at (u(1,2),u(2,0))"),
    "cocycle.equivalent-iii": (
        "fail", 411, "exception NotInvertible: gamma vanishes at (u(1,2),u(2,0))"),
    "cocycle.equivalent-iv": (
        "fail", 51, "exception NotInvertible: gamma vanishes at (u(1,2),u(2,0))"),
    "cocycle.unital": ("pass", 9, None),
    "cocycle.convolution-inverse": (
        "fail", 51, "exception NotInvertible: gamma vanishes at (u(1,2),u(2,0))"),
    "cocycle.grouplike-crosscheck": ("pass", 729, None),
}


def test_a_raising_gamma_bar_fails_the_checks_that_read_it():
    A, _, triples = _z2(3)
    gamma = bicharacter_cocycle(A, [[0, 1], [-1, 0]]).gamma
    pair = ((1, 2), (2, 0))
    vanishing = PairFunctional(lambda a, b: Cyc.zero(3) if (a, b) == pair else gamma(a, b))
    assert _identity_results(
        A, gamma, convolution_inverse(vanishing, A), triples) == RAISING_GAMMA_BAR


@pytest.mark.parametrize("build, kernels", [
    (lambda: finite_bicharacter(5), []),
    (lambda: nc_torus(1, 3, box=1, samples=4), ["associator", "mixed"]),
    (lambda: fun_group("s3"), ["associator", "mixed"]),
], ids=["finite_bicharacter(5)", "nc_torus(1,3)", "fun_group(s3)"])
def test_the_cocycle_suite_takes_exponent_rows_on_finite_grouplike_models_only(
        monkeypatch, build, kernels):
    calls = set()
    for name in ("associator", "mixed"):
        monkeypatch.setattr(cocycle, name, lambda *args, name=name, kernel=getattr(cocycle, name):
                            calls.add(name) or kernel(*args))
    assert run_suite(build(), "cocycle", Report()).passed
    assert sorted(calls) == kernels
