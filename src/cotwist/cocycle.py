"""2-cocycles, their convolution calculus and the twisted Hopf *-algebra.

A cocycle gamma is a convolution-invertible functional on A tensor A; the
engine keeps gamma and its inverse as total functions on basis label pairs
(closed form for lattice algebras, tables for finite ones) and derives the
four auxiliary functionals

    U(k)  = gamma(k1 (x) S(k2))        Ubar(k) = gammabar(S(k1) (x) k2)
    V(k)  = U(S^-1 k)                  Vbar(k) = Ubar(S^-1 k)

that build the twisted antipode and involution.  The twisted algebra A_g
shares Delta and epsilon with A and carries

    h ._g k   = gamma(h1 (x) k1) h2 k2 gammabar(h3 (x) k3)
    S_g(h)    = U(h1) S(h2) Ubar(h3)
    h^{*_g}   = Vbar(h1*) h2* V(h3*)
    S_g^{-1}  = V(h1) S^-1(h2) Vbar(h3)   (from U*Ubar = V*Vbar = counit)

The cocycle equation and its forms (ii)-(iv) have two shapes, and two kernels,
`associator` and `mixed`, give both sides of each at every triple.  Fast
paths, each kept by its row of BENCH_31.json (in parentheses):
- on a finite grouplike basis with shared-root values, integer exponent rows
  replace the kernels (`cocycle.exponent_rows`);
- on any grouplike basis each Sweedler sum is its label repeated, with an
  exact 1: `sweedler_sum` calls fn once at the doubled labels
  (`cocycle.sweedler_grouplike`), and h ._g k is the product hk times
  gamma(h (x) k) gammabar(h (x) k), read at one key (`cocycle.mult_grouplike`);
- otherwise h ._g k sums the three-leg terms once per pair of middle labels
  (`cocycle.mult_middle_grouping`);
- the flat sums skip every product with an exact 1 (`cocycle.times`,
  `cocycle.flat_sum_skip`, `cocycle.sum_against_skip`).
"""

from __future__ import annotations

from functools import cache
from itertools import product, repeat
from operator import eq

from .cyclotomic import _ONE, Cyc  # the flat sums skip every product with an exact 1
from .hopf import HopfAlgebra, at, at_labels
from .report import outcome
from .vectors import Vec, gauss_solve, memoize_tables

_zero = cache(Cyc.zero)


class PairFunctional(dict):
    """A linear functional on A (x) A, total on basis label pairs: the memo of
    its values, f[(l1, l2)] == f(l1, l2), each computed on first read."""

    _cache = property(lambda self: self)  # the memo, by the name the bench probe reads

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, l1, l2):
        return self[(l1, l2)]

    def __missing__(self, key):
        out = self[key] = self.fn(*key)
        return out

    def on_elems(self, v, w):
        """Bilinear extension to a pair of elements."""
        return _flat_sum(v.order, self, [((l1, l2), _times(c1, c2)) for l1, c1 in v.terms.items()
                                         for l2, c2 in w.terms.items()])


def _times(c, d):
    return c if d.den == 1 and d.num == _ONE else d if c.den == 1 and c.num == _ONE else c * d


def _flat_sum(order, fn, terms):
    """The sum of c * fn(*args) over a list of (args, c), adding no raw zero."""
    out = None
    for args, c in terms:
        t = fn(*args) if c.den == 1 and c.num == _ONE else c * fn(*args)
        if t.num:
            out = t if out is None else out + t
    return _zero(order) if out is None else out


def sweedler_sum(A, fn, *labels):
    """fn(x1, x2, y1, y2, ...) summed over the two-leg Sweedler sums of the labels,
    in one loop over the product of their memoised term lists: the first
    label's legs vary slowest and the last label's fastest."""
    if not labels:
        return fn()
    if A.grouplike_basis:
        # one term, the label twice, with an exact 1
        t = fn(*[x for label in labels for x in (label, label)])
        return t if t.num else _zero(A.scalar_order)
    terms = A.sweedler(labels[0], 2).terms.items()
    for label in labels[1:]:
        terms = [(args + k, _times(c, d))
                 for args, c in terms for k, d in A.sweedler(label, 2).terms.items()]
    return _flat_sum(A.scalar_order, fn, terms)


def counit_functional(A):
    return PairFunctional(lambda l1, l2: A.counit(l1) * A.counit(l2))


def convolve(phi, psi, A):
    """(phi * psi)(a (x) b) = phi(a1 (x) b1) psi(a2 (x) b2)."""

    return PairFunctional(lambda l1, l2: sweedler_sum(
        A, lambda a1, a2, b1, b2: phi(a1, b1) * psi(a2, b2), l1, l2))


class NotInvertible(ValueError):
    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


def convolution_inverse(gamma, A):
    """The convolution inverse of gamma, by the method the algebra allows.

    On a grouplike basis it is the pointwise reciprocal.  On a finite
    algebra it is the exact dense solve of gamma * psi = counit over
    Q(zeta), confirmed on the other side.  Otherwise NotInvertible.
    """
    if A.grouplike_basis:

        def fn(l1, l2):
            v = gamma[(l1, l2)]
            if v.is_zero():
                raise NotInvertible(
                    f"gamma vanishes at ({A.label_name(l1)},{A.label_name(l2)})",
                    pair=(l1, l2))
            return v.inverse()

        return PairFunctional(fn)

    labels = A.finite_labels()
    if labels is None:
        raise NotInvertible("no convolution inverse method: basis not grouplike, "
                            "algebra not finite")
    n = len(labels)
    idx = {l: i for i, l in enumerate(labels)}
    order = A.scalar_order
    rows, rhs = [], []
    eps = counit_functional(A)
    zero = Cyc.zero(order)
    for a in labels:
        for b in labels:
            row = [zero] * (n * n)
            for (a1, a2), ca in A.coproduct(a).terms.items():
                for (b1, b2), cb in A.coproduct(b).terms.items():
                    row[idx[a2] * n + idx[b2]] = (
                        row[idx[a2] * n + idx[b2]] + ca * cb * gamma(a1, b1))
            rows.append(row)
            rhs.append(eps(a, b))
    sol, _, bad = gauss_solve(rows, rhs)
    if sol is None:
        a, b = labels[bad // n], labels[bad % n]
        raise NotInvertible(
            f"gamma has no convolution inverse; inconsistent at "
            f"({A.label_name(a)},{A.label_name(b)})", pair=(a, b))
    table = {(a, b): sol[idx[a] * n + idx[b]] for a in labels for b in labels}
    psi = PairFunctional(lambda l1, l2: table[(l1, l2)])
    # the solve only imposed gamma * psi; confirm the other side
    other = convolve(psi, gamma, A)
    for a in labels:
        for b in labels:
            if other(a, b) != eps(a, b):
                raise NotInvertible(
                    f"one-sided inverse only, fails at ({A.label_name(a)},{A.label_name(b)})",
                    pair=(a, b))
    return psi


class CocycleData:
    """gamma with its convolution inverse gammabar, and U/Ubar/V/Vbar."""

    def __init__(self, A, gamma, gamma_bar):
        self.hopf = A
        self.gamma = gamma
        self.gamma_bar = gamma_bar
        memoize_tables(self, "U", "Ubar", "V", "Vbar")

    def U(self, label):
        A = self.hopf
        return sweedler_sum(
            A, lambda k1, k2: A.antipode(k2).evaluate(lambda s: self.gamma(k1, s)), label)

    def Ubar(self, label):
        A = self.hopf
        return sweedler_sum(
            A, lambda k1, k2: A.antipode(k1).evaluate(lambda s: self.gamma_bar(s, k2)), label)

    def V(self, label):
        return self.hopf.antipode_inv(label).evaluate(self.U)

    def Vbar(self, label):
        return self.hopf.antipode_inv(label).evaluate(self.Ubar)

    def inverse_data(self, twisted_hopf):
        """gammabar as a cocycle on the twisted algebra (for round trips)."""
        return CocycleData(twisted_hopf, self.gamma_bar, self.gamma)


def trivial_cocycle(A):
    return CocycleData(A, counit_functional(A), counit_functional(A))


def bicharacter_cocycle(A, pairing):
    """gamma(u_a (x) u_b) = zeta^{sum_ij P[i][j] a_i b_j} on a finite or free lattice.

    P is an integer matrix and zeta the primitive root of unity of order
    A.scalar_order, so every value is a root of unity in Q(zeta).
    """
    rank = A.rank
    order = A.scalar_order
    if len(pairing) != rank or any(
            len(row) != rank or any(type(x) is not int for x in row) for row in pairing):
        raise ValueError(f"pairing must be a {rank}x{rank} matrix of ints, got {pairing!r}")

    entries = [(i, j, p) for i, row in enumerate(pairing) for j, p in enumerate(row) if p]

    def fn(l1, l2):
        e = 0
        for i, j, p in entries:
            e += p * l1[i] * l2[j]
        return Cyc.root(order, e)

    gamma = PairFunctional(fn)
    return CocycleData(A, gamma, convolution_inverse(gamma, A))


class TwistedHopf(HopfAlgebra):
    """The 2-cocycle twist A_gamma, sharing coalgebra structure with A."""

    def __init__(self, base, data):
        if data.hopf is not base:
            raise ValueError("cocycle data bound to a different algebra")
        self.base = base
        self.data = data
        self.scalar_order = base.scalar_order
        self.grouplike_basis = base.grouplike_basis
        self._mult_cache = {}
        memoize_tables(self, "basis", "antipode", "antipode_inv", "star")

    def mult(self, l1, l2):
        key = (l1, l2)
        out = self._mult_cache.get(key)
        if out is None:
            A, g, gb = self.base, self.data.gamma, self.data.gamma_bar
            # h ._g k = gamma(h1 (x) k1) h2 k2 gammabar(h3 (x) k3)
            if A.grouplike_basis:
                # every leg of a grouplike label is the label, with an exact 1
                out = A.mult(l1, l2).scale(g[key] * gb[key])
            else:
                # legs by middle label; one scalar per pair of middles with a nonzero product
                mid1, mid2, order = {}, {}, self.scalar_order
                for mid, legs in ((mid1, A.sweedler(l1, 3)), (mid2, A.sweedler(l2, 3))):
                    for h, c in legs.terms.items():
                        mid.setdefault(h[1], []).append((h, c))
                out = Vec(order, {(x, y): _flat_sum(
                    order, lambda h, k: g[(h[0], k[0])] * gb[(h[2], k[2])],
                    [((h, k), _times(c, d)) for h, c in hs for k, d in ks])
                    for x, hs in mid1.items() for y, ks in mid2.items()
                    if A.mult(x, y).terms}).apply(lambda xy: A.mult(*xy))
            self._mult_cache[key] = out
        return out

    def unit(self):
        return self.base.unit()

    def coproduct(self, label):
        return self.base.coproduct(label)

    def sweedler(self, label, legs):
        return self.base.sweedler(label, legs)

    def counit(self, label):
        return self.base.counit(label)

    def antipode(self, label):
        # S_g(h) = U(h1) S(h2) Ubar(h3)
        d = self.data
        return self._sandwich(label, d.U, self.base.antipode, d.Ubar)

    def antipode_inv(self, label):
        # S_g^-1(h) = V(h1) S^-1(h2) Vbar(h3)
        d = self.data
        return self._sandwich(label, d.V, self.base.antipode_inv, d.Vbar)

    def star(self, label):
        # h^{*_g} = Vbar(h1*) h2* V(h3*); Delta is a *-homomorphism, so the
        # starred Sweedler legs are the stars of the legs
        A, d = self.base, self.data
        return self._sandwich(label, lambda h: A.star(h).evaluate(d.Vbar), A.star,
                              lambda h: A.star(h).evaluate(d.V), conj=True)

    def _sandwich(self, label, left, middle, right, conj=False):
        """left(h1) middle(h2) right(h3) over the three-leg Sweedler sum of a
        label, extended antilinearly when conj."""
        legs = self.base.sweedler(label, 3)
        extend = legs.apply_conj if conj else legs.apply
        return extend(lambda h: middle(h[1]).scale(left(h[0]) * right(h[2])))

    def label_name(self, label):
        return self.base.label_name(label)

    def finite_labels(self):
        return self.base.finite_labels()

    def labels_box(self, box):
        return self.base.labels_box(box)

    def box_size(self, box):
        return self.base.box_size(box)


# -- identity suites ---------------------------------------------------------


def _legs_times(A, a, b, i):
    """Delta(a) Delta(b) with legs i multiplied, coefficients folded in:
    a1 (x) b1 (x) a2 b2 for i = 1, a2 (x) b2 (x) a1 b1 for i = 0."""
    return [((x[1 - i], y[1 - i], m), _times(_times(cx, cy), cm))
            for x, cx in A.sweedler(a, 2).terms.items()
            for y, cy in A.sweedler(b, 2).terms.items()
            for m, cm in A.mult(x[i], y[i]).terms.items()]


def _sum_against(order, f, terms, k, left):
    """The sum of c * f(m (x) k) over terms (m, c), or of c * f(k (x) m) when
    left, read from f's memo."""
    out = None
    for m, c in terms:
        v = f[(k, m) if left else (m, k)]
        v = v if c.den == 1 and c.num == _ONE else c * v
        out = v if out is None else out + v
    return _zero(order) if out is None else out


def associator(A, f, i, triples):
    """(lhs, rhs) at each triple (g, h, k) of the sums over _legs_times(g, h, i)
    of f(x (x) y) f(m (x) k) and over _legs_times(h, k, i) of f(h1 (x) k1) f(g (x) m):
    (i) for f = gamma, i = 1 and (ii) for f = gammabar, i = 0.  Each side
    reads a per-pair table of (m, c f(x (x) y))."""
    folded = cache(lambda a, b: [(m, _times(c, f[(x, y)]))
                                 for (x, y, m), c in _legs_times(A, a, b, i)])
    for lg, lh, lk in triples:
        yield (_sum_against(A.scalar_order, f, folded(lg, lh), lk, False),
               _sum_against(A.scalar_order, f, folded(lh, lk), lg, True))


def mixed(A, F, G, j, triples):
    """(lhs, rhs) at each triple of F(g_j h_j (x) k_j) G(g_j' (x) h_j' k_j') =
    G(g (x) h_j) F(h_j' (x) k), j' = 1 - j: (iii) for F = gamma, G = gammabar,
    j = 0 (first legs), (iv) the swap with j = 1.  times_leg(a, b) is
    (b_j, a b_j'); the right side reads a per-pair table of (h_j', c G(g (x) h_j))."""
    legs_times = cache(lambda a, b: _legs_times(A, a, b, j))
    times_leg = cache(lambda a, b: [((y[j], m), _times(cy, cm))
                                    for y, cy in A.sweedler(b, 2).terms.items()
                                    for m, cm in A.mult(a, y[1 - j]).terms.items()])
    folded = cache(lambda a, b: [(y[1 - j], _times(c, G[(a, y[j])]))
                                 for y, c in A.sweedler(b, 2).terms.items()])
    for lg, lh, lk in triples:
        lhs = None
        for (x, y, m), c in legs_times(lg, lh):
            for (kk, n), d in times_leg(y, lk):
                v = _times(_times(c, d), F[(m, kk)] * G[(x, n)])
                lhs = v if lhs is None else lhs + v
        yield (_zero(A.scalar_order) if lhs is None else lhs,
               _sum_against(A.scalar_order, F, folded(lg, lh), lk, False))


def _exponent_rows(data, A, triples):
    """(A, labels, n, mult, exponents) for the exponent rows, or None unless the
    basis is grouplike, the triples are every triple of the finite labels in
    product order, and every gamma and gammabar value on a label pair is a
    shared root of order n.  mult[i][j] is the index of labels[i] labels[j],
    and exponents maps g, gb, -g, -gb to [i][j] -> the exponent of gamma or
    gammabar at (labels[i], labels[j]), or its negative."""
    labels, n = A.finite_labels(), A.scalar_order
    if not A.grouplike_basis or labels is None or len(triples) != len(labels) ** 3 \
            or not all(map(eq, triples, product(labels, repeat=3))):
        return None
    idx = {l: i for i, l in enumerate(labels)}
    try:  # an exception is raised again, by the kernel of the check that meets it
        mult = [[idx[A.mult(a, b).unit_key] for b in labels] for a in labels]
        exponents = {}
        for name, f in (("g", data.gamma), ("gb", data.gamma_bar)):
            values = [[f[(a, b)] for b in labels] for a in labels]
            if any(v.exp is None or v.order != n for row in values for v in row):
                return None
            exponents[name] = [[v.exp for v in row] for row in values]
            exponents["-" + name] = [[-v.exp for v in row] for row in values]
    except Exception:
        return None
    return A, labels, n, mult, exponents


def _row_outcomes(rows, what, terms):
    """The outcome at each triple (g, h, k) of X(g, h) + Y(gh, k) + Z(h, k) +
    W(g, hk) == 0 mod n, for the exponent tables X, Y, Z, W named by terms:
    one int row over k per (g, h), walked k by k only when it fails."""
    A, labels, n, mult, exponents = rows
    X, Y, Z, W = (exponents[t] for t in terms)
    named = at_labels(A, f"{what} fails")
    for i, (xi, mi, wi) in enumerate(zip(X, mult, W)):
        for j, x in enumerate(xi):
            row = [(x + y + z + wi[m]) % n for y, z, m in zip(Y[mi[j]], Z[j], mult[j])]
            if any(row):
                k = next(k for k, d in enumerate(row) if d)
                yield from repeat(None, k)
                yield named((labels[i], labels[j], labels[k]))
                return
            yield from repeat(None, len(row))


def verify_cocycle_identities(data, A, triples, reporter):
    """The cocycle equation, its three equivalent forms, and unitality.  The
    domain of each of (i)-(iv) is its kernel's (lhs, rhs) at each triple, or,
    where _exponent_rows applies, its exponent rows: both sides are then
    products of two shared roots, equal iff their exponents agree mod n."""
    g, gb = data.gamma, data.gamma_bar
    eps = counit_functional(A)
    rows = _exponent_rows(data, A, triples)
    # each kernel's tables live for its own check only
    for check_id, anchor, what, kernel, fs, i, terms in (
            ("cocycle.equation", "cocycle.equation", "cocycle equation", associator, [g], 1,
             ("g", "g", "-g", "-g")),
            ("cocycle.equivalent-ii", "cocycle.inverse-equation", "identity (ii)",
             associator, [gb], 0, ("gb", "gb", "-gb", "-gb")),
            ("cocycle.equivalent-iii", "cocycle.mixed-identity-left", "identity (iii)",
             mixed, [g, gb], 0, ("-gb", "g", "-g", "gb")),
            ("cocycle.equivalent-iv", "cocycle.mixed-identity-right", "identity (iv)",
             mixed, [gb, g], 1, ("-g", "gb", "-gb", "g"))):
        if rows:
            reporter.forall(check_id, anchor, _row_outcomes(rows, what, terms), outcome)
            continue
        named = at_labels(A, f"{what} fails")
        reporter.equal(check_id, anchor, zip(triples, kernel(A, *fs, i, triples)),
                       lambda ts: ts[1], lambda ts, named=named: named(ts[0]))

    labels = sorted({l for t in triples for l in t})
    one = A.unit()
    reporter.equal("cocycle.unital", "cocycle.unitality", labels,
                   lambda l: ((one.evaluate(lambda u: g(l, u)), one.evaluate(lambda u: g(u, l))),
                              (A.counit(l),) * 2),
                   at(A, "unitality fails"))

    left = convolve(g, gb, A)
    right = convolve(gb, g, A)
    pairs = {(a, b) for (a, b, _) in triples} | {(b, c) for (_, b, c) in triples}
    reporter.equal("cocycle.convolution-inverse", "cocycle.convolution-inverse", sorted(pairs),
                   lambda ab: ((left(*ab), right(*ab)), (eps(*ab),) * 2),
                   at_labels(A, "gamma*gammabar != counit"))

    if rows:
        reporter.forall("cocycle.grouplike-crosscheck", "cocycle.group-cocycle-form",
                        _row_outcomes(rows, "group 2-cocycle identity", ("g", "g", "-g", "-g")),
                        outcome)
    elif A.grouplike_basis:
        def group_form(t):
            lg, lh, lk = t
            gh = next(iter(A.mult(lg, lh).terms))
            hk = next(iter(A.mult(lh, lk).terms))
            return g(lg, lh) * g(gh, lk), g(lh, lk) * g(lg, hk)

        reporter.equal("cocycle.grouplike-crosscheck", "cocycle.group-cocycle-form", triples,
                       group_form, at_labels(A, "group 2-cocycle identity fails"))


def verify_unitarity_suite(data, A, pairs, reporter):
    """Conjugation laws of a unitary cocycle plus the exchange identities."""
    g, gb = data.gamma, data.gamma_bar

    @cache
    def s_star(l):
        # S(l)* as an element, once per label
        return A.star_elem(A.antipode(l))

    reporter.equal("unitary.gamma-conjugation", "unitarity.gamma-conjugation", pairs,
                   lambda ab: (g(*ab).conj(), gb.on_elems(s_star(ab[0]), s_star(ab[1]))),
                   at_labels(A, "conj gamma != gammabar(S*().,S*().)"))
    reporter.equal("unitary.gammabar-conjugation", "unitarity.inverse-conjugation", pairs,
                   lambda ab: (gb(*ab).conj(), g.on_elems(s_star(ab[0]), s_star(ab[1]))),
                   at_labels(A, "conj gammabar != gamma(S*().,S*().)"))

    labels = sorted({l for p in pairs for l in p})

    @cache
    def vbar_star(l):
        # Vbar(l*), once per label
        return A.star(l).evaluate(data.Vbar)

    @cache
    def vbar_prod(h, k):
        # Vbar((hk)*), once per label pair
        return A.star_elem(A.mult(h, k)).evaluate(data.Vbar)

    reporter.equal("unitary.vbar-conjugation", "unitarity.vbar-v-conjugation", labels,
                   lambda l: (vbar_star(l).conj(), data.V(l)), at(A, "conj Vbar(h*) != V(h)"))

    for check_id, anchor, f, fbar, what in (
            ("unitary.u-ubar-inverse", "twist.u-convolution-inverse", data.U, data.Ubar,
             "U*Ubar != counit"),
            ("unitary.v-vbar-inverse", "twist.v-convolution-inverse", data.V, data.Vbar,
             "V*Vbar != counit")):
        # f * fbar = fbar * f = counit
        reporter.equal(check_id, anchor, labels, lambda l, f=f, fbar=fbar: (
            (sweedler_sum(A, lambda k1, k2: f(k1) * fbar(k2), l),
             sweedler_sum(A, lambda k1, k2: fbar(k1) * f(k2), l)), (A.counit(l),) * 2),
            at(A, what))

    # Both sides of the two Vbar identities are antilinear in h and k, so the
    # Sweedler sums below compare their conjugates, which are linear.
    def vbar_exchange(hk):
        # Vbar(k1*) Vbar(h1*) gamma(k2* (x) h2*) = gammabar(S(h1)* (x) S(k1)*) Vbar(k2* h2*)
        lh, lk = hk
        lhs = sweedler_sum(A, lambda k1, k2, h1, h2: (
            vbar_star(k1) * vbar_star(h1) * g.on_elems(A.star(k2), A.star(h2))).conj(), lk, lh)
        rhs = sweedler_sum(A, lambda k1, k2, h1, h2: (
            gb.on_elems(s_star(h1), s_star(k1)) * vbar_prod(h2, k2)).conj(), lk, lh)
        return lhs, rhs

    reporter.equal("unitary.vbar-exchange", "unitarity.vbar-exchange-identity", pairs,
                   vbar_exchange, at_labels(A, "vbar exchange identity fails"))

    def vbar_merge(hk):
        # gamma(S(h1)* (x) S(k1)*) Vbar(k2*) Vbar(h2*) = Vbar(k1* h1*) gammabar(k2* (x) h2*)
        lh, lk = hk
        lhs = sweedler_sum(A, lambda k1, k2, h1, h2: (
            g.on_elems(s_star(h1), s_star(k1)) * vbar_star(k2) * vbar_star(h2)).conj(), lk, lh)
        rhs = sweedler_sum(A, lambda k1, k2, h1, h2: (
            vbar_prod(h1, k1) * gb.on_elems(A.star(k2), A.star(h2))).conj(), lk, lh)
        return lhs, rhs

    reporter.equal("unitary.vbar-merge", "unitarity.vbar-merge-identity", pairs, vbar_merge,
                   at_labels(A, "vbar merge identity fails"))

    def u_exchange(hk):
        # U(h1) gammabar(S(h2) (x) k) = gamma(h1 (x) S(h2) k)
        lh, lk = hk
        lhs = sweedler_sum(A, lambda h1, h2:
                           data.U(h1) * A.antipode(h2).evaluate(lambda s: gb(s, lk)), lh)
        rhs = sweedler_sum(A, lambda h1, h2: A.mult_elem(A.antipode(h2), A.el(lk)).evaluate(
            lambda l: g(h1, l)), lh)
        return lhs, rhs

    reporter.equal("unitary.u-exchange", "twist.u-exchange-identity", pairs, u_exchange,
                   at_labels(A, "u exchange identity fails"))

    if A.grouplike_basis:
        # on a grouplike basis, unitarity is exactly pointwise unit modulus
        one = Cyc.one(A.scalar_order)
        reporter.equal("unitary.modulus", "unitarity.unit-modulus", pairs,
                       lambda ab: (g(*ab) * g(*ab).conj(), one), at_labels(A, "|gamma| != 1"))
