"""Sparse linear combinations over Q(zeta_N) and exact linear solving.

A Vec is a finite formal sum of hashable basis keys with Cyc coefficients.
Everything downstream (algebra elements, tensors, module elements, forms)
is a Vec over structured keys, so canonical forms and exact equality come
for free: a Vec is zero iff every coefficient reduces to zero mod Phi_N.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import Cyc, _phi, format_scalar


class Vec:
    __slots__ = ("order", "terms")

    def __init__(self, order, terms=None):
        self.order = order
        self.terms = {}
        if terms:
            for k, c in terms.items():
                self.add_term(k, c)

    def add_term(self, key, coeff):
        if type(coeff) is not Cyc:
            coeff = Cyc.rational(coeff, self.order)
        elif coeff.order != self.order:
            coeff = coeff.embed(self.order)
        if not coeff.num:
            return
        cur = self.terms.get(key)
        if cur is None:
            self.terms[key] = coeff
        else:
            s = cur + coeff
            if s.num:
                self.terms[key] = s
            else:
                del self.terms[key]

    @staticmethod
    def single(order, key, coeff=1):
        v = Vec(order)
        v.add_term(key, coeff)
        return v

    @staticmethod
    def zero(order):
        return Vec(order)

    def copy(self):
        v = Vec(self.order)
        v.terms = dict(self.terms)
        return v

    def __add__(self, other):
        v = self.copy()
        for k, c in other.terms.items():
            v.add_term(k, c)
        return v

    def __sub__(self, other):
        v = self.copy()
        for k, c in other.terms.items():
            v.add_term(k, -c)
        return v

    def __neg__(self):
        v = Vec(self.order)
        v.terms = {k: -c for k, c in self.terms.items()}
        return v

    def scale(self, coeff):
        v = Vec(self.order)
        if type(coeff) is int:
            # an integer multiple of a nonzero term is never zero
            if coeff:
                v.terms = {k: c * coeff for k, c in self.terms.items()}
            return v
        if type(coeff) is not Cyc:
            coeff = Cyc.rational(coeff, self.order)
        if coeff.num:
            for k, c in self.terms.items():
                v.add_term(k, coeff * c)
        return v

    def map_keys(self, fn):
        v = Vec(self.order)
        for k, c in self.terms.items():
            v.add_term(fn(k), c)
        return v

    def apply(self, fn):
        """Linear extension: fn(key) -> Vec, summed with coefficients."""
        out = Vec(self.order)
        for k, c in self.terms.items():
            img = fn(k)
            for k2, c2 in img.terms.items():
                out.add_term(k2, c * c2)
        return out

    def is_zero(self):
        return all(c.is_zero() for c in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        return (self - other).is_zero()

    def __iter__(self):
        return iter(self.terms.items())

    def sorted_terms(self):
        return sorted(
            ((k, c) for k, c in self.terms.items() if not c.is_zero()),
            key=lambda kv: _key_sort(kv[0]),
        )

    def pruned(self):
        v = Vec(self.order)
        for k, c in self.terms.items():
            if not c.is_zero():
                v.terms[k] = c
        return v

    def describe(self, name=str):
        parts = [f"({format_scalar(c)})*{name(k)}" for k, c in self.sorted_terms()]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"Vec[{self.describe()}]"


def memoize_table(fn):
    """Memoise a pure structure-table function of hashable arguments."""
    cache = {}

    def wrapped(*key):
        out = cache.get(key)
        if out is None:
            out = fn(*key)
            cache[key] = out
        return out

    return wrapped


def _key_sort(k):
    # total order across heterogeneous key shapes, for stable output
    if isinstance(k, tuple):
        return (1, tuple(_key_sort(x) for x in k))
    if isinstance(k, int):
        return (0, k)
    return (2, str(k))


# -- exact dense linear algebra ------------------------------------------


def gauss_solve(rows, rhs, zero, zero_el, one_el):
    """Solve rows * x = rhs exactly over a field.

    rows: list of lists (m x n), rhs: list (m).  Entries must support
    +,-,*,/ and the zero predicate.  Returns (particular solution or None
    if inconsistent, kernel basis as list of n-vectors, witness row index
    on inconsistency).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = []
    row = 0
    for col in range(n):
        piv = None
        for r in range(row, m):
            if not zero(a[r][col]):
                piv = r
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        pv = a[row][col]
        a[row] = [x / pv for x in a[row]]
        for r in range(m):
            if r != row and not zero(a[r][col]):
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if not zero(a[r][n]):
            return None, [], r
    sol = [zero_el for _ in range(n)]
    for r, col in enumerate(pivots):
        sol[col] = a[r][n]
    free = [c for c in range(n) if c not in pivots]
    kernel = []
    for fc in free:
        vec = [zero_el for _ in range(n)]
        vec[fc] = one_el
        for r, col in enumerate(pivots):
            vec[col] = zero_el - a[r][fc]
        kernel.append(vec)
    return sol, kernel, None


def solve_cyc(rows, rhs, order):
    """gauss_solve specialised to Cyc entries."""
    rows = [[(x if isinstance(x, Cyc) else Cyc.rational(x, order)) for x in r] for r in rows]
    rhs = [(x if isinstance(x, Cyc) else Cyc.rational(x, order)) for x in rhs]
    if not rows:
        return [], [], None
    return gauss_solve(rows, rhs, lambda c: c.is_zero(), Cyc.zero(order), Cyc.one(order))


def solve_frac(rows, rhs):
    """gauss_solve specialised to Fraction entries."""
    if not rows:
        return [], [], None
    return gauss_solve(rows, rhs, lambda q: q == 0, Fraction(0), Fraction(1))


def cyc_to_coords(c, order):
    """Canonical rational coordinates of c in the power basis of Q(zeta_order)."""
    out = [Fraction(0)] * _phi(order)
    can, den = c.embed(order).canonical()
    for k, v in can:
        out[k] = Fraction(v, den)
    return out


def coords_to_cyc(coords, order):
    return Cyc(order, {i: q for i, q in enumerate(coords) if q})


def conj_matrix(order):
    """phi(order) x phi(order) rational matrix of complex conjugation."""
    deg = _phi(order)
    cols = []
    for k in range(deg):
        img = Cyc.root(order, -k) if k else Cyc.one(order)
        cols.append(cyc_to_coords(img, order))
    # matrix[i][j] = coefficient i of conj(zeta^j)
    return [[cols[j][i] for j in range(deg)] for i in range(deg)]
