"""The exact linear solver and inverse over Q and Q(zeta_12), against minors."""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from cotwist.cyclotomic import Cyc
from cotwist.vectors import gauss_solve, invert

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
