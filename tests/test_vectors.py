"""The exact linear solver and inverse over Q and Q(zeta_12), against minors,
the antilinear solver, against the same system in rational coordinates, the
extensions of Vec, against their coefficients summed key by key, their unit
paths, against a term-by-term loop, the unit key every builder stores, against
the one read from the terms, and Vec equality, against the difference reducing
to zero."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotwist.cyclotomic import Cyc, cyclotomic_polynomial
from cotwist.hopf import GroupAlgebra
from cotwist.modules import CentralBasisModule, SelfComodule
from cotwist.vectors import Vec, gauss_solve, invert, solve_antilinear

ORDER = 12
# mostly zeros, so singular and inconsistent systems are common
small = st.sampled_from([0, 0, 0, 1, -1, 2])
fractions = small.map(Fraction)
cycs = st.dictionaries(st.integers(0, ORDER - 1), small, max_size=2).map(
    lambda d: Cyc(ORDER, d))


@st.composite
def systems(draw, entries):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        x = [draw(entries) for _ in range(n)]
        rhs = [_dot(r, x) for r in rows]
    else:
        rhs = [draw(entries) for _ in range(m)]
    return rows, rhs


def _dot(row, x):
    return sum((a * b for a, b in zip(row, x)), row[0] * 0)


def _det(mat):
    if not mat:
        return 1
    return sum(((-1) ** j * mat[0][j] * _det([r[:j] + r[j + 1:] for r in mat[1:]])
                for j in range(len(mat))), mat[0][0] * 0)


def _rank(mat):
    """The size of the largest nonzero minor: no elimination involved."""
    m, n = len(mat), len(mat[0]) if mat else 0
    for k in range(min(m, n), 0, -1):
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                if _det([[mat[r][c] for c in cs] for r in rs]):
                    return k
    return 0


def _check(rows, rhs):
    n = len(rows[0])
    sol, kernel, bad = gauss_solve(rows, rhs)
    aug = [r + [b] for r, b in zip(rows, rhs)]
    if sol is None:
        # the witness is the first row that contradicts the rows before it
        assert kernel == []
        assert _rank(rows[:bad]) == _rank(aug[:bad])
        assert _rank(rows[:bad + 1]) < _rank(aug[:bad + 1])
        return
    assert bad is None and _rank(rows) == _rank(aug)
    assert [_dot(r, sol) for r in rows] == rhs
    for v in kernel:
        assert not any(_dot(r, v) for r in rows)
    assert len(kernel) == n - _rank(rows)
    assert not kernel or _rank(kernel) == len(kernel)


@settings(max_examples=150, deadline=None)
@given(systems(fractions))
def test_gauss_solve_over_q(system):
    _check(*system)


@settings(max_examples=80, deadline=None)
@given(systems(cycs))
def test_gauss_solve_over_q_zeta12(system):
    _check(*system)


def test_gauss_solve_empty_and_zero_width_systems():
    assert gauss_solve([], []) == ([], [], None)
    assert gauss_solve([[]], [Fraction(0)]) == ([], [], None)
    assert gauss_solve([[], []], [Fraction(0), Fraction(3)]) == (None, [], 1)


@st.composite
def antilinear_systems(draw):
    """(order, lin, anti, rhs, z0): rhs = lin z0 + anti conj(z0), or random with z0 None."""
    order = draw(st.sampled_from([3, 4, 5, 8, 12]))
    entries = st.dictionaries(st.integers(0, order - 1), small, max_size=2).map(
        lambda d: Cyc(order, d))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lin = [[draw(entries) for _ in range(n)] for _ in range(m)]
    anti = [[draw(entries) for _ in range(n)] for _ in range(m)]
    z0 = None
    if draw(st.booleans()):
        z0 = [draw(entries) for _ in range(n)]
        rhs = [_antilinear(a, b, z0) for a, b in zip(lin, anti)]
    else:
        rhs = [draw(entries) for _ in range(m)]
    return order, lin, anti, rhs, z0


def _antilinear(a, b, z):
    return _dot(a, z) + _dot(b, [x.conj() for x in z])


def _coords(c, deg):
    out = [Fraction(0)] * deg
    can, den = c.canonical()
    for k, v in can:
        out[k] = Fraction(v, den)
    return out


def _rational_reference(order, lin, anti, rhs):
    """gauss_solve of the same system over Q: z_k = sum_s q_ks zeta^s for
    s < phi(order), and each row split into its phi(order) coordinates."""
    deg = len(cyclotomic_polynomial(order)) - 1
    n = len(lin[0])
    rows, out = [], []
    for a, b, c in zip(lin, anti, rhs):
        block = [[Fraction(0)] * (n * deg) for _ in range(deg)]
        for k in range(n):
            for s in range(deg):
                # q_ks contributes zeta^s through a and conj(zeta^s) through b
                image = a[k] * Cyc.root(order, s) + b[k] * Cyc.root(order, -s)
                for r, q in enumerate(_coords(image, deg)):
                    block[r][k * deg + s] = q
        rows += block
        out += _coords(c, deg)
    return gauss_solve(rows, out)


@settings(max_examples=150, deadline=None)
@given(antilinear_systems())
def test_solve_antilinear_against_rational_coordinates(system):
    order, lin, anti, rhs, z0 = system
    z, kernel_dim, bad = solve_antilinear(lin, anti, rhs)
    ref, ref_kernel, _ = _rational_reference(order, lin, anti, rhs)
    assert (z is None) == (ref is None)
    if z is None:
        # the witness is the first row that contradicts the rows before it
        assert z0 is None
        assert _rational_reference(order, lin[:bad + 1], anti[:bad + 1], rhs[:bad + 1])[0] is None
        assert bad == 0 or \
            _rational_reference(order, lin[:bad], anti[:bad], rhs[:bad])[0] is not None
        return
    assert bad is None
    deg = len(cyclotomic_polynomial(order)) - 1
    assert len(ref_kernel) == kernel_dim * deg // 2
    assert [_antilinear(a, b, z) for a, b in zip(lin, anti)] == rhs
    if z0 is not None and not kernel_dim:
        assert z == z0


@pytest.mark.parametrize("order", [1, 2])
def test_solve_antilinear_needs_complex_conjugation(order):
    one = Cyc.one(order)
    with pytest.raises(ValueError):
        solve_antilinear([[one]], [[one]], [one])


@st.composite
def matrices(draw, entries):
    m = draw(st.integers(1, 4))
    n = m if draw(st.booleans()) else draw(st.integers(1, 4))
    return [[draw(entries) for _ in range(n)] for _ in range(m)]


def _check_invert(rows):
    columns = invert(rows)
    if len(rows) != len(rows[0]) or not _det(rows):
        assert columns is None
        return
    zero = rows[0][0] * 0
    for t, col in enumerate(columns):
        assert [_dot(r, col) for r in rows] == [zero + (i == t) for i in range(len(rows))]


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(fractions), matrices(cycs)))
def test_invert_is_the_inverse_or_none(rows):
    _check_invert(rows)


def test_invert_empty_matrix():
    assert invert([]) == []


ZERO = Cyc.zero(ORDER)
KEYS = range(4)
# at most three terms, so the empty Vec is drawn too
vecs = st.dictionaries(st.sampled_from(KEYS), cycs, max_size=3).map(lambda d: Vec(ORDER, d))


def _dense(v, keys=KEYS):
    """The coefficients of v at keys, which must hold all of its terms."""
    assert set(v.terms) <= set(keys)
    return [v.terms.get(k, ZERO) for k in keys]


@settings(max_examples=100, deadline=None)
@given(vecs, vecs, st.lists(vecs, min_size=4, max_size=4),
       st.lists(vecs, min_size=16, max_size=16), st.lists(cycs, min_size=4, max_size=4))
def test_extensions_match_explicit_loops(v, w, images, pair_images, scalars):
    cv, cw = _dense(v), _dense(w)
    img = [_dense(x) for x in images]
    pair_img = [_dense(x) for x in pair_images]

    def total(terms):
        return sum(terms, ZERO)

    assert _dense(v.apply(images.__getitem__)) == [
        total(cv[k] * img[k][x] for k in KEYS) for x in KEYS]
    assert _dense(v.apply_conj(images.__getitem__)) == [
        total(cv[k].conj() * img[k][x] for k in KEYS) for x in KEYS]
    assert _dense(v.apply2(w, lambda k1, k2: pair_images[4 * k1 + k2])) == [
        total(cv[k1] * cw[k2] * pair_img[4 * k1 + k2][x] for k1 in KEYS for k2 in KEYS)
        for x in KEYS]
    value = v.evaluate(scalars.__getitem__)
    assert value.order == ORDER and value == total(cv[k] * scalars[k] for k in KEYS)
    pairs = [(k1, k2) for k1 in KEYS for k2 in KEYS]
    assert _dense(v.tensor(w), pairs) == [cv[k1] * cw[k2] for k1, k2 in pairs]


@pytest.mark.parametrize("order", [1, 5, 12])
def test_evaluate_on_the_empty_vec_is_the_zero_of_its_order(order):
    value = Vec(order).evaluate(lambda k: Cyc.one(ORDER))
    assert value.order == order and value.is_zero()


# Coefficients for the equality tests.  The first three are zero but not in
# raw form: 1 + zeta_3 + zeta_3^2 at order 3 and at order 12, and zeta_12^2
# times it.  1 + zeta_3 and -zeta_3^2 are one value in two raw forms, as are
# zeta_3 and zeta_12^4.
EQ_COEFFS = [
    Cyc(3, {0: 1, 1: 1, 2: 1}), Cyc(12, {0: 1, 4: 1, 8: 1}), Cyc(12, {2: 1, 6: 1, 10: 1}),
    Cyc.one(3), Cyc.rational(-1, 3), Cyc.root(3), Cyc(3, {0: 1, 1: 1}), Cyc(3, {2: -1}),
    Cyc.root(12, 4), Cyc.root(12), Cyc.rational(Fraction(1, 2), 12),
]


@st.composite
def eq_vecs(draw):
    """A Vec of order 3 or 12 over three keys, the empty one included."""
    order = draw(st.sampled_from([3, 12]))
    pool = [c for c in EQ_COEFFS if order % c.order == 0]
    return Vec(order, draw(st.dictionaries(st.sampled_from("xyz"), st.sampled_from(pool),
                                           max_size=3)))


def _difference_is_zero(a, b):
    """The reference equality: a - b reduces to zero.  The difference is taken
    at the first operand's order, so the one of larger order goes first."""
    if a.order % b.order:
        a, b = b, a
    return (a - b).is_zero()


@settings(max_examples=300, deadline=None)
@given(eq_vecs(), eq_vecs())
def test_equality_key_by_key_matches_the_difference(a, b):
    assert (a == b) == (b == a) == _difference_is_zero(a, b)


@pytest.mark.parametrize("order, zero", [(3, EQ_COEFFS[0]), (12, EQ_COEFFS[0]), (12, EQ_COEFFS[1])])
def test_equality_reduces_one_sided_keys(order, zero):
    assert zero.num and zero.is_zero()
    v = Vec(order, {"x": 1})
    w = Vec(order, {"x": 1, "y": zero})
    assert v == w and w == v
    assert Vec(order) == Vec(order, {"y": zero}) == Vec(order)
    assert Vec(order, {"x": 1}) != Vec(order) and Vec(order) != Vec(order, {"x": 1})
    assert Vec(order, {"x": 1, "y": 1}) != v and v != Vec(order, {"x": 1, "y": 1})


def test_equality_across_orders():
    assert Vec(3, {"x": Cyc.root(3)}) == Vec(12, {"x": Cyc.root(12, 4)})
    assert Vec(12, {"x": Cyc.root(12, 4)}) == Vec(3, {"x": Cyc.root(3)})
    assert Vec(3, {"x": Cyc.root(3)}) != Vec(12, {"x": Cyc.root(12)})


# One-term coefficients for the unit paths: an exact 1 in raw form, shared or
# built by the constructor, and four that must take the general path.
def _unit_path_coeffs(order):
    return [Cyc.one(order), Cyc(order, {0: 1}), Cyc.rational(-1, order),
            Cyc.rational(2, order), Cyc.root(order), Cyc.one(3)]


def _raw(v):
    """The terms of v in order, with raw coefficients: what the unit paths keep."""
    return v.order, [(k, c.order, c.num, c.den) for k, c in v.terms.items()]


def _reference_extension(v, w, fn, conj=False):
    """sum c * conj?(d) * fn(keys) term by term, with no unit path (w None: linear)."""
    out = Vec(v.order)
    for k1, c1 in v.terms.items():
        for k2, c2 in (w.terms.items() if w is not None else [(None, Cyc.one(v.order))]):
            img = fn(k1) if w is None else fn(k1, k2)
            c = (c1.conj() if conj else c1) * c2
            out = out + Vec(v.order, {k: c * d for k, d in img.terms.items()})
    return out


@st.composite
def unit_path_cases(draw):
    """A one-term Vec, a second one, an image table at its order or at 3, and a scalar."""
    order = draw(st.sampled_from([3, 12]))
    coeffs = [c for c in _unit_path_coeffs(order) if order % c.order == 0]
    img_order = draw(st.sampled_from([3, order]))
    entries = st.dictionaries(st.integers(0, img_order - 1), small, max_size=2).map(
        lambda d: Cyc(img_order, d))
    images = st.dictionaries(st.sampled_from(KEYS), entries, max_size=3).map(
        lambda d: Vec(img_order, d))
    one_term = st.tuples(st.sampled_from(KEYS), st.sampled_from(coeffs)).map(
        lambda kc: Vec(order, {kc[0]: kc[1]}))
    return (draw(one_term), draw(one_term), draw(st.lists(images, min_size=4, max_size=4)),
            draw(st.sampled_from(coeffs)))


def _is_unit(v):
    (_, c), = v.terms.items()
    return c.den == 1 and c.num == {0: 1} and c.order == v.order


@settings(max_examples=200, deadline=None)
@given(unit_path_cases())
def test_unit_paths_return_the_image_itself(case):
    v, w, images, scalar = case
    (k, _), = v.terms.items()
    (k2, _), = w.terms.items()
    same_order = images[0].order == v.order
    pair = lambda k1, k2: images[(k1 + 3 * k2) % 4]  # noqa: E731

    for got, want, image, taken in (
            (v.apply(images.__getitem__), _reference_extension(v, None, images.__getitem__),
             images[k], _is_unit(v)),
            (v.apply_conj(images.__getitem__),
             _reference_extension(v, None, images.__getitem__, conj=True), images[k], _is_unit(v)),
            (v.apply2(w, pair), _reference_extension(v, w, pair), pair(k, k2),
             _is_unit(v) and _is_unit(w))):
        assert _raw(got) == _raw(want)
        assert (got is image) == (taken and same_order)

    u = v + w
    scaled = u.scale(scalar)
    assert _raw(scaled) == _raw(Vec(u.order, {key: scalar * c for key, c in u.terms.items()}))
    assert (scaled is u) == (scalar.num == {0: 1} and scalar.den == 1 and scalar.order == u.order)


def test_a_vec_equals_itself_without_comparing_coefficients(monkeypatch):
    v = Vec(12, {"x": Cyc.root(12), "y": Cyc(12, {0: 1, 4: 1, 8: 1})})
    w = Vec(12, dict(v.terms))
    monkeypatch.setattr(Cyc, "__eq__", lambda a, b: pytest.fail("compared a coefficient"))
    assert v == v
    with pytest.raises(pytest.fail.Exception):
        assert v == w


# -- the unit key that every builder stores ----------------------------------


def _value_unit_key(v):
    """The unit key read from the terms: the key of the one term, if its
    coefficient is an exact 1 in raw form at the Vec's own order."""
    if len(v.terms) == 1:
        (k, c), = v.terms.items()
        if c.den == 1 and c.num == {0: 1} and c.order == v.order:
            return k
    return None


# exact 1s shared, built and embedded from order 3, -1 as a rational and as a
# root, 2, zeta_12 and its inverse, and a zero that is not in raw form
UNIT_KEY_COEFFS = [Cyc.one(12), Cyc(12, {0: 1}), Cyc.one(3), Cyc(3, {0: 1}),
                   Cyc.rational(-1, 12), Cyc.root(12, 6), Cyc.rational(2, 12), Cyc.root(12),
                   Cyc.root(12, 11), Cyc(12, {0: 1, 4: 1, 8: 1})]
unit_key_vecs = st.dictionaries(st.integers(0, 3), st.sampled_from(UNIT_KEY_COEFFS),
                                max_size=3).map(lambda d: Vec(12, d))
unit_key_scalars = st.sampled_from([1, -1, 0, 2] + UNIT_KEY_COEFFS)


def _z4_module():
    """The free module on one central basis element e over C[Z_4], at order 12."""
    return CentralBasisModule(SelfComodule(GroupAlgebra(0, (4,), scalar_order=12)), ["e"])


def _builders(v, w, images, scalar, module):
    """(name, Vec) from every builder of a Vec, on the drawn operands."""
    pair = lambda k1, k2: images[(k1 + 3 * k2) % 4]  # noqa: E731
    elem = v.map_keys(lambda k: ((k,), "e"))
    return [
        ("init", v), ("single", Vec.single(12, "x", scalar)), ("add", v + w), ("sub", v - w),
        ("add-sub", (v + w) - w), ("neg", -v), ("scale", v.scale(scalar)),
        ("map-merging", v.map_keys(lambda k: k % 2)), ("map", v.map_keys(lambda k: k + 4)),
        ("apply", v.apply(images.__getitem__)), ("apply-conj", v.apply_conj(images.__getitem__)),
        ("apply2", v.apply2(w, pair)), ("tensor", v.tensor(w)), ("pruned", v.pruned()),
        ("copy", v.copy()), ("lmul", module.lmul(w.map_keys(lambda k: (k,)), elem)),
        ("rmul", module.rmul(elem, w.map_keys(lambda k: (k,))))]


@settings(max_examples=200, deadline=None)
@given(unit_key_vecs, unit_key_vecs, st.lists(unit_key_vecs, min_size=4, max_size=4),
       unit_key_scalars)
def test_every_builder_stores_the_unit_key_of_its_terms(v, w, images, scalar):
    for name, got in _builders(v, w, images, scalar, _z4_module()):
        assert got.unit_key == _value_unit_key(got), name


def _unit_key_cases():
    """(name, Vec) whose unit key is set, one per builder and per way it gets there."""
    one, minus, root = Cyc.one(12), Cyc.rational(-1, 12), Cyc.root(12)
    x1y2 = Vec(12, {"x": 1, "y": 2})
    images = [Vec(12, {"x": 1, "y": 1}), Vec(12, {"y": -1}), Vec(12, {"x": 1}), Vec(12)]
    module = _z4_module()
    # zeta_12 u(1) e times zeta_12^11 u(3): u(0) e with an exact 1
    e1, b3 = Vec(12, {((1,), "e"): root}), Vec(12, {(3,): Cyc.root(12, 11)})
    return [
        ("init-embedded", Vec(12, {"x": Cyc.one(3)})),
        ("init-built", Vec(12, {"x": Cyc(12, {0: 1})})),
        ("single-int", Vec.single(12, "x")), ("single-one", Vec.single(12, "x", one)),
        ("add-cancelling", x1y2 + Vec(12, {"y": -2})), ("sub-cancelling", x1y2 - Vec(12, {"y": 2})),
        ("add-to-one", Vec(12, {"x": 2}) + Vec(12, {"x": -1})),
        ("neg", -Vec(12, {"x": minus})), ("scale-int", Vec(12, {"x": minus}).scale(-1)),
        ("scale-one", Vec(12, {"x": 1}).scale(one)),
        ("scale-root", Vec(12, {"x": Cyc.root(12, 11)}).scale(root)),
        # 1 and 3 merge to nothing, then 0 is written whole
        ("map-merging", Vec(12, {1: 2, 3: -2, 0: 1}).map_keys(lambda k: k % 2)),
        ("map", Vec(12, {0: 1}).map_keys(lambda k: k + 4)),
        ("apply", Vec(12, {0: 1, 1: 1}).apply(images.__getitem__)),
        ("apply-conj", Vec(12, {0: 1, 1: 1}).apply_conj(images.__getitem__)),
        ("apply2", Vec(12, {0: 1, 1: 1}).apply2(Vec(12, {0: 1}), lambda a, b: images[a + b])),
        ("tensor", Vec(12, {0: 1}).tensor(Vec(12, {1: 1}))),
        ("pruned", Vec(12, {"x": 1, "y": Cyc(12, {0: 1, 4: 1, 8: 1})}).pruned()),
        ("copy", Vec(12, {"x": 1}).copy()),
        ("lmul", module.lmul(b3, e1)), ("rmul", module.rmul(e1, b3))]


UNIT_KEY_CASES = _unit_key_cases()


@pytest.mark.parametrize("name, v", UNIT_KEY_CASES, ids=[n for n, _ in UNIT_KEY_CASES])
def test_a_builder_that_ends_on_one_exact_1_stores_its_key(name, v):
    assert v.unit_key is not None
    assert v.unit_key == _value_unit_key(v)
