"""Exact cyclotomic arithmetic: frozen examples, field-axiom properties, the
reduction table mod Phi_N, and the shared unit and roots of unity."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotwist.cyclotomic import Cyc, _phi, _power_reduction, cyclotomic_polynomial, format_scalar
from cotwist.models import nc_torus
from cotwist.report import Report
from cotwist.suites import run_suite


def test_i_squared_is_minus_one():
    i = Cyc.root(4, 1)
    assert i * i == Cyc.rational(-1, 4)


def test_conjugation_of_roots():
    for n in (1, 2, 3, 4, 5, 6, 8, 12):
        for k in range(n):
            assert Cyc.root(n, k).conj() == Cyc.root(n, n - k)


def test_cyclotomic_relation_zeta3():
    z = Cyc.root(3)
    s = Cyc.one(3) + z + z * z
    assert s.is_zero()


def test_zeta8_relation():
    z8 = Cyc.root(8)
    assert (z8 ** 4 + Cyc.one(8)).is_zero()


def test_root_inverse():
    z5 = Cyc.root(5)
    assert Cyc.one(5) / z5 == Cyc.root(5, 4)


def test_mixed_order_multiplication():
    # oracle: exponent addition after lcm embedding, zeta6*zeta4 = zeta12^2 * zeta12^3
    prod = Cyc.root(6) * Cyc.root(4)
    assert prod == Cyc.root(12, 5)
    assert prod.order == 12


def test_rejects_bad_order():
    with pytest.raises(ValueError):
        Cyc.root(0, 1)
    with pytest.raises(ValueError):
        Cyc(0)


def test_division_by_zero_distinct_error():
    with pytest.raises(ZeroDivisionError):
        Cyc.one(4) / Cyc.zero(4)


def _dense_cyclotomic_polynomial(n, memo={}):
    """Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d by dense long division,
    the reference for `cyclotomic_polynomial`."""
    if n not in memo:
        num = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                den = _dense_cyclotomic_polynomial(d)
                deg = len(den) - 1
                quot = [0] * (len(num) - deg)
                for shift in range(len(quot) - 1, -1, -1):
                    f = quot[shift] = num[shift + deg]
                    for i, c in enumerate(den):
                        num[shift + i] -= f * c
                assert not any(num)
                num = quot
        memo[n] = tuple(num)
    return memo[n]


def test_cyclotomic_polynomial_matches_dense_division():
    for n in [*range(1, 400), 4036]:
        assert cyclotomic_polynomial(n) == _dense_cyclotomic_polynomial(n), n


def test_cyclotomic_polynomials():
    assert list(cyclotomic_polynomial(1)) == [Fraction(-1), Fraction(1)]
    assert list(cyclotomic_polynomial(2)) == [Fraction(1), Fraction(1)]
    assert list(cyclotomic_polynomial(4)) == [Fraction(1), Fraction(0), Fraction(1)]
    # Phi_12 = x^4 - x^2 + 1
    assert list(cyclotomic_polynomial(12)) == [
        Fraction(1), Fraction(0), Fraction(-1), Fraction(0), Fraction(1)]


small_scalars = st.builds(
    lambda pairs: Cyc(12, {k: Fraction(n, d) for (k, n, d) in pairs}),
    st.lists(
        st.tuples(st.integers(0, 11), st.integers(-4, 4), st.integers(1, 3)),
        max_size=3,
    ),
)


@settings(max_examples=60, deadline=None)
@given(small_scalars, small_scalars, small_scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.inverse() == Cyc.one(12)


@settings(max_examples=60, deadline=None)
@given(small_scalars, small_scalars)
def test_conj_is_multiplicative_involution(a, b):
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()


@settings(max_examples=40, deadline=None)
@given(small_scalars, small_scalars)
def test_embedding_commutes_with_arithmetic(a, b):
    assert (a * b).embed(24) == a.embed(24) * b.embed(24)
    assert (a + b).embed(24) == a.embed(24) + b.embed(24)
    assert a.conj().embed(24) == a.embed(24).conj()


def test_format_scalar():
    # zeta12^5 reduces to zeta12^3 - zeta12 mod Phi_12
    c = Cyc(12, {5: Fraction(3, 2), 0: -1})
    assert format_scalar(c) == "-1 - 3/2*zeta(12) + 3/2*zeta(12)^3"
    assert format_scalar(Cyc.zero(7)) == "0"
    assert format_scalar(Cyc.one(7)) == "1"


def test_format_scalar_mixed_denominators():
    # zeta12^5 = zeta12^3 - zeta12 and zeta12^7 = -zeta12 mod Phi_12
    c = Cyc(12, {0: Fraction(1, 2), 5: Fraction(-2, 3), 7: Fraction(3, 4)})
    assert format_scalar(c) == "1/2 - 1/12*zeta(12) - 2/3*zeta(12)^3"


# -- the integer-numerator representation --------------------------------


def _assert_normalised(c):
    """Integer numerators over den > 0, no zero entry, gcd(den, *num) == 1."""
    assert type(c.den) is int and c.den > 0
    assert all(type(v) is int and v for v in c.num.values())
    assert all(0 <= k < c.order for k in c.num)
    assert math.gcd(c.den, *c.num.values()) == 1
    terms, den = c.canonical()
    assert den > 0 and math.gcd(den, *(v for _, v in terms)) == 1
    assert all(0 <= k < _phi(c.order) for k, _ in terms)


@settings(max_examples=60, deadline=None)
@given(small_scalars, small_scalars)
def test_every_operation_keeps_the_representation_normalised(a, b):
    _assert_normalised(a)
    for c in (a + b, a - b, a * b, a * 3, a * Fraction(-2, 9), a.conj(), a.embed(24), -a):
        _assert_normalised(c)
    if not a.is_zero():
        _assert_normalised(a.inverse())
        _assert_normalised(b / a)


def test_cancellation_divides_out_the_denominator():
    c = Cyc(3, {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)})
    assert c.is_zero() and c.canonical() == ((), 1)
    half = Cyc.rational(Fraction(1, 2), 5)
    assert (half + half).num == {0: 1} and (half + half).den == 1


orders = st.sampled_from([1, 4, 5, 12, 20])


@st.composite
def high_monomials(draw):
    """q * zeta_n^k with k >= phi(n) (raw, unreduced) and q negative or fractional."""
    n = draw(orders)
    k = draw(st.integers(_phi(n), max(_phi(n), n - 1)))
    q = draw(st.fractions(min_value=-9, max_value=9, max_denominator=12)
             .filter(lambda q: q and (q < 0 or q.denominator > 1)))
    return Cyc(n, {k: q})


@settings(max_examples=80, deadline=None)
@given(high_monomials())
def test_monomial_inverse(a):
    inv = a.inverse()
    assert a * inv == Cyc.one(a.order)
    assert inv * a == 1
    _assert_normalised(inv)
    # the same element written in the power basis is inverted through
    # its field norm when it has several terms; both routes must agree
    terms, den = a.canonical()
    spelled = Cyc(a.order, {k: Fraction(v, den) for k, v in terms})
    assert spelled.inverse() == inv


def _general_product(a, b):
    """a * b summed term by term over Fractions, with no fast path."""
    out = {}
    for k1, v1 in a.num.items():
        for k2, v2 in b.num.items():
            k = (k1 + k2) % a.order
            out[k] = out.get(k, 0) + Fraction(v1 * v2, a.den * b.den)
    return Cyc(a.order, out)


@st.composite
def elements(draw):
    n = draw(orders)
    return Cyc(n, draw(st.dictionaries(
        st.integers(0, n - 1), st.fractions(min_value=-4, max_value=4, max_denominator=3),
        max_size=3)))


@settings(max_examples=80, deadline=None)
@given(elements())
def test_multiplying_by_the_shared_one_returns_the_other_factor(x):
    one = Cyc.one(x.order)
    for product in (one * x, x * one):
        # an x that is an exact 1 itself may come back as either factor
        assert product is x or product is one and (x.num, x.den) == ({0: 1}, 1)
    for product in (_general_product(one, x), _general_product(x, one)):
        assert product == x and (product.num, product.den) == (x.num, x.den)


@pytest.mark.parametrize("n", [1, 3, 5, 12, 20])
def test_one_unit_per_order(n):
    assert Cyc.rational(1, n) is Cyc.one(n)
    assert Cyc.rational(Fraction(1), n) is Cyc.one(n)
    assert Cyc.one(n) is not Cyc.one(2 * n)
    for q in (0, 1, -1, Fraction(-3, 4)):
        x = Cyc.rational(q, n)
        assert x.conj() == x and (x.conj().num, x.conj().den) == (x.num, x.den)


def test_shared_unit_survives_a_suite_run():
    units = {n: Cyc.one(n) for n in range(1, 25)}
    run_suite(nc_torus(1, 3, box=2, samples=4), "all", Report())
    for n, one in units.items():
        assert Cyc.one(n) is one
        assert one.num == {0: 1} and one.den == 1 and one.canonical() == (((0, 1),), 1)


def _long_reduction(n, k):
    """x^k mod Phi_n by dense long division, the reference for `_power_reduction`."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    num = [0] * k + [1]
    for top in range(k, deg - 1, -1):
        f = num[top]
        if f:
            for i, c in enumerate(phi):
                num[top - deg + i] -= f * c
    return tuple((i, c) for i, c in enumerate(num[:deg]) if c)


@pytest.mark.parametrize("n", [1, 2, 6, 9, 15, 20, 24, 30, 36, 45, 60, 105])
def test_power_reduction_matches_long_division(n):
    assert [_power_reduction(n, k) for k in range(n)] == [_long_reduction(n, k) for k in range(n)]


def test_power_reduction_of_a_large_order():
    # N = lcm(4, 1009): exponents far above the recursion limit, and the
    # even-order shortcut zeta^(N/2) = -1
    n = 4 * 1009
    assert _phi(n) == 2016
    assert _power_reduction(n, n // 2 + 5) == ((5, -1),)
    for k in (2016, 2017):
        assert _power_reduction(n, k) == _long_reduction(n, k)
        assert _power_reduction(n, n // 2 + k) == tuple((i, -c) for i, c in _long_reduction(n, k))


@settings(max_examples=80, deadline=None)
@given(orders, st.integers(-50, 50), st.integers(-50, 50))
def test_roots_of_unity_are_shared(n, k1, k2):
    z1, z2 = Cyc.root(n, k1), Cyc.root(n, k2)
    assert z1 is Cyc.root(n, k1 + n) and Cyc.root(n, 0) is Cyc.one(n)
    assert (z1.num, z1.den) == ({k1 % n: 1}, 1)
    assert z1 * z2 is Cyc.root(n, k1 + k2)
    # a monomial product is the shared root whenever its value is 1 * zeta^k
    assert Cyc(n, {k1: -1}) * Cyc(n, {k2: -1}) is Cyc.root(n, k1 + k2)
    assert Cyc(n, {k1: Fraction(2, 3)}) * Cyc(n, {k2: Fraction(3, 2)}) is Cyc.root(n, k1 + k2)
    for other in (Cyc(n, {k2: -1}), Cyc(n, {k2: 2})):
        product = z1 * other
        assert (product.num, product.den) == ({(k1 + k2) % n: other.num[k2 % n]}, 1)
    # a shared root carries its exponent; its inverse is the shared root too
    assert (z1.exp, Cyc(n, {k1: 1}).exp, Cyc(n, {k1: 2}).exp) == (k1 % n, None, None)
    assert z1.inverse() is Cyc.root(n, -k1) and z1 * z1.inverse() is Cyc.one(n)
    assert z1.conj() is Cyc.root(n, -k1)
    # a constructor-built zeta^k has no exponent, and multiplies and compares
    # as the shared one
    built = Cyc(n, {k1: 1})
    for product in (built * z2, z2 * built):
        assert product == Cyc.root(n, k1 + k2)
        assert (product.num, product.den) == ({(k1 + k2) % n: 1}, 1)
    assert built == z1 and z1 == built and built.inverse() == z1.inverse()
    # roots of different orders take the general path
    for product in (z1 * Cyc.root(2 * n, k2), Cyc.root(2 * n, k2) * z1):
        assert (product.order, product.num, product.den) == (2 * n, {(2 * k1 + k2) % (2 * n): 1}, 1)
        assert product == _general_product(z1.embed(2 * n), Cyc.root(2 * n, k2))


@settings(max_examples=80, deadline=None)
@given(elements())
def test_is_zero_agrees_with_the_canonical_form(x):
    assert x.is_zero() == (not x.canonical()[0])
    if len(x.num) == 1:
        assert not x.is_zero()


@pytest.mark.parametrize("x", [Cyc(3, {0: 1, 1: 1, 2: 1}), Cyc(2, {0: 1, 1: 1}),
                               Cyc(4, {0: 1, 2: 1}), Cyc(12, {4: 1, 8: 1, 0: 1})])
def test_multi_term_zeros(x):
    assert x.is_zero() and x == Cyc.zero(x.order) and Cyc.zero(x.order) == x


class _Uncomparable(dict):
    def __eq__(self, other):
        raise AssertionError("numerators compared")

    __hash__ = None


def test_a_scalar_equals_itself_without_comparing_numerators():
    x = Cyc(12, {5: 1, 7: 2, 11: Fraction(-1, 3)})
    x.num = _Uncomparable(x.num)
    assert x == x and x._canon is None


def test_shared_roots_and_basis_vectors_survive_a_suite_run():
    roots = {(n, k): Cyc.root(n, k) for n in range(1, 25) for k in range(n)}
    bundle = nc_torus(1, 3, box=2, samples=4)
    labels = bundle.hopf.labels_box(2)
    basis = {(alg, label): alg.el(label) for alg in (bundle.hopf, bundle.comodule)
             for label in labels}
    run_suite(bundle, "all", Report())
    for (n, k), root in roots.items():
        assert Cyc.root(n, k) is root
        assert root.num == {k: 1} and root.den == 1
        assert format_scalar(root) == format_scalar(Cyc(n, {k: 1}))
    for (alg, label), v in basis.items():
        assert alg.el(label) is v
        (key, c), = v.terms.items()
        assert key == label and c is Cyc.one(v.order) and c.num == {0: 1} and c.den == 1
