"""Sparse linear combinations over Q(zeta_N) and exact linear solving.

A Vec is a finite formal sum of hashable basis keys with Cyc coefficients.
Everything downstream (algebra elements, tensors, module elements, forms)
is a Vec over structured keys, so canonical forms and exact equality come
for free: a Vec is zero iff every coefficient reduces to zero mod Phi_N.
A Vec is never written once its builder returns, so Vecs are shared: the
algebras memoise their tables and basis vectors, a linear extension of one
term with an exact 1 returns the image itself, and so does scaling by 1.
"""

from __future__ import annotations

import weakref

from .cyclotomic import _ONE, Cyc, format_scalar


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

    def copy(self):
        v = Vec(self.order)
        v.terms = dict(self.terms)
        return v

    def __add__(self, other):
        v = Vec(self.order)
        v.terms = dict(self.terms)
        for k, c in other.terms.items():
            v.add_term(k, c)
        return v

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        v = Vec(self.order)
        v.terms = {k: -c for k, c in self.terms.items()}
        return v

    def scale(self, coeff):
        if type(coeff) is int:
            v = Vec(self.order)
            # an integer multiple of a nonzero term is never zero
            if coeff:
                v.terms = {k: c * coeff for k, c in self.terms.items()}
            return v
        if type(coeff) is not Cyc:
            coeff = Cyc.rational(coeff, self.order)
        if coeff.den == 1 and coeff.num == _ONE and coeff.order == self.order:
            return self
        v = Vec(self.order)
        if coeff.num:
            for k, c in self.terms.items():
                v.add_term(k, coeff * c)
        return v

    def map_keys(self, fn):
        v = Vec(self.order)
        terms = v.terms
        for k, c in self.terms.items():
            k2 = fn(k)
            # only keys that fn merges need an addition
            if k2 in terms:
                v.add_term(k2, c)
            else:
                terms[k2] = c
        return v

    def _unit_key(self):
        """The key of a Vec that is one term with an exact 1 in raw form, else None.
        The extensions return such a key's image itself when it has this order;
        a None key, or an image of another order, takes their general loop."""
        if len(self.terms) == 1:
            (k, c), = self.terms.items()
            if c.den == 1 and c.num == _ONE:
                return k
        return None

    def apply(self, fn):
        """Linear extension: fn(key) -> Vec, summed with coefficients."""
        if (k := self._unit_key()) is not None and (img := fn(k)).order == self.order:
            return img
        out = Vec(self.order)
        add = out.add_term
        for k, c in self.terms.items():
            for k2, c2 in fn(k).terms.items():
                add(k2, c * c2)
        return out

    def apply2(self, other, fn):
        """Bilinear extension: fn(key, other_key) -> Vec, in one pass."""
        if (k1 := self._unit_key()) is not None and (k2 := other._unit_key()) is not None \
                and (img := fn(k1, k2)).order == self.order:
            return img
        out = Vec(self.order)
        add = out.add_term
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                img = fn(k1, k2).terms
                if img:
                    c = c1 * c2
                    for k3, c3 in img.items():
                        add(k3, c * c3)
        return out

    def apply_conj(self, fn):
        """Antilinear extension: fn(key) -> Vec, summed with conjugated coefficients."""
        if (k := self._unit_key()) is not None and (img := fn(k)).order == self.order:
            return img
        out = Vec(self.order)
        add = out.add_term
        for k, c in self.terms.items():
            img = fn(k).terms
            if img:
                c = c.conj()
                for k2, c2 in img.items():
                    add(k2, c * c2)
        return out

    def evaluate(self, fn):
        """The linear functional sum c * fn(key), for fn(key) a scalar."""
        # starting from the first term, not from a zero, saves one addition
        # per call on the many one-term Vecs of grouplike algebras
        out = None
        for k, c in self.terms.items():
            t = c * fn(k)
            out = t if out is None else out + t
        return Cyc.zero(self.order) if out is None else out

    def tensor(self, other):
        """self (x) other as a Vec over key pairs."""
        out = Vec(self.order)
        add = out.add_term
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                add((k1, k2), c1 * c2)
        return out

    def is_zero(self):
        return all(c.is_zero() for c in self.terms.values())

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Vec):
            return NotImplemented
        a, b = self.terms, other.terms  # key by key; a one-sided key must reduce to 0
        return all(c.is_zero() if (d := b.get(k)) is None else c == d for k, c in a.items()) \
            and all(c.is_zero() for k, c in b.items() if k not in a)

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


def memoize_table(method):
    """Memoise a pure structure-table method of hashable arguments.

    Each key is computed once per object; `memoize_tables` says which tables
    qualify.  The object is held weakly, as a `weakref.ref` beside the plain
    function: an object that memoises its own methods would otherwise sit in
    a reference cycle, and its tables would outlive it until the cyclic
    collector runs.
    """
    # the traced benchmark probe reads the dict `cache` and the name `wrapped`
    cache = {}
    target, func = weakref.ref(method.__self__), method.__func__

    def wrapped(*key):
        out = cache.get(key)
        if out is None:
            out = func(target(), *key)
            cache[key] = out
        return out

    return wrapped


def memoize_tables(obj, *names):
    """Replace each named label-level table of obj by its memo (`memoize_table`).

    A class's `__init__` lists here every table that is pure: a function of
    its labels and of data fixed when the object is built, whose Vec or
    scalar results callers share and never write.  A table that reads data
    edited after the build is never listed, so such an edit shows on the next
    call: `Calculus.d`, `_d_term` and `wedge` (the `d_table` and
    `wedge_table` of the calculus faults) and the metric, connection, sigma
    and Hermitian tables of `geometry`.  Each name gets its own memo of its
    own bound method, so a subclass that overrides `antipode` alone leaves a
    memoised `antipode_inv` true.
    """
    for name in names:
        setattr(obj, name, memoize_table(getattr(obj, name)))


def _key_sort(k):
    # total order across heterogeneous key shapes, for stable output
    if isinstance(k, tuple):
        return (1, tuple(_key_sort(x) for x in k))
    if isinstance(k, int):
        return (0, k)
    return (2, str(k))


# -- exact dense linear algebra ------------------------------------------


def gauss_solve(rows, rhs):
    """Solve rows * x = rhs exactly over Q(zeta_N) or Q.

    rows: m lists of n entries, rhs: m entries, all Cyc or all Fraction; an
    entry is zero iff it is falsy.  Rows are taken in order into a reduced
    row echelon form, so the first row that contradicts the ones before it
    is the witness.  Returns (the solution with every free unknown 0, or
    None if inconsistent; a kernel basis as n-lists, one per free unknown in
    ascending order; the witness row index, or None).  A system that is
    antilinear in its unknowns goes through `solve_antilinear`.
    """
    n = len(rows[0]) if rows else 0
    pivots, bad = _echelon([list(r) + [b] for r, b in zip(rows, rhs)], n)
    if bad is not None:
        return None, [], bad
    zero = rows[0][0] * 0 if n else None
    sol = [zero] * n
    for col, prow in pivots.items():
        sol[col] = prow[n]
    kernel = []
    for fc in range(n):
        if fc not in pivots:
            vec = [zero] * n
            vec[fc] = zero + 1
            for col, prow in pivots.items():
                vec[col] = -prow[fc]
            kernel.append(vec)
    return sol, kernel, None


def solve_antilinear(lin, anti, rhs):
    """Solve lin * z + anti * conj(z) = rhs exactly over Q(zeta_N), N > 2.

    lin, anti: m >= 1 lists of n Cyc entries, rhs: m Cyc entries.  The
    unknowns w = conj(z) join z, and each row is paired with its conjugate
    row conj(anti) * z + conj(lin) * w = conj(rhs).  By Galois descent the
    doubled system is consistent iff this one is, and its kernel dimension
    over Q(zeta_N) is the dimension over the real subfield of the solutions
    of the homogeneous system (phi(N)/2 times less than over Q).  Returns
    (a solution, or None if inconsistent; that kernel dimension; the index
    into rhs of the witness row, or None).  For N <= 2 conjugation is the
    identity and the doubled kernel would over-count, so that raises.
    """
    if rhs[0].order <= 2:
        raise ValueError("antilinear solve needs a field with complex conjugation")
    rows, full = [], []
    for a, b, c in zip(lin, anti, rhs):
        rows += [a + b, [x.conj() for x in b] + [x.conj() for x in a]]
        full += [c, c.conj()]
    sol, kernel, bad = gauss_solve(rows, full)
    if sol is None:
        return None, 0, bad // 2
    n = len(lin[0])
    # (conj(w), conj(z)) solves the doubled system too, so the mean has
    # w = conj(z), also when the kernel is not zero
    return [(z + w.conj()) / 2 for z, w in zip(sol[:n], sol[n:])], len(kernel), None


def invert(rows):
    """The inverse of a square matrix as its list of columns (column t solves
    rows * x = e_t), or None when the matrix is not square or is singular."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        return None
    if not n:
        return []
    zero = rows[0][0] * 0
    one = zero + 1
    pivots, bad = _echelon(
        [list(r) + [one if j == i else zero for j in range(n)] for i, r in enumerate(rows)], n)
    # [rows | 1] has full rank, so a row whose first n entries vanish is the
    # only way rows can be singular
    if bad is not None:
        return None
    return [[pivots[col][n + t] for col in range(n)] for t in range(n)]


def _echelon(aug, n):
    """Take the augmented rows `aug` (n unknown columns first, modified in
    place) in order into reduced row echelon form.

    Returns (pivot column -> reduced row with 1 at that column, the index of
    the first row whose unknown part vanished while the rest did not, or None).
    """
    pivots = {}
    for i, row in enumerate(aug):
        for col, prow in pivots.items():
            _clear(row, col, prow)
        col = next((j for j in range(n) if row[j]), None)
        if col is None:
            if any(row[n:]):
                return pivots, i
            continue
        inv = 1 / row[col]
        row = [x * inv if x else x for x in row]
        for prow in pivots.values():
            _clear(prow, col, row)
        pivots[col] = row
    return pivots, None


def _clear(row, col, prow):
    """Subtract the multiple of prow (1 at col) that zeroes row[col], in place."""
    f = row[col]
    if f:
        for j, y in enumerate(prow):
            if y:
                row[j] = row[j] - f * y
