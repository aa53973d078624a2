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
"""

from __future__ import annotations

from .cyclotomic import Cyc
from .hopf import HopfAlgebra
from .vectors import Vec, gauss_solve


class PairFunctional:
    """A linear functional on A (x) A, total on basis label pairs."""

    def __init__(self, A, fn):
        self.A = A
        self.fn = fn
        self._cache = {}

    def __call__(self, l1, l2):
        key = (l1, l2)
        out = self._cache.get(key)
        if out is None:
            out = self.fn(l1, l2)
            self._cache[key] = out
        return out

    def on_elems(self, v, w):
        """Bilinear extension to a pair of elements."""
        out = Cyc.zero(self.A.scalar_order)
        for l1, c1 in v.terms.items():
            for l2, c2 in w.terms.items():
                out = out + c1 * c2 * self(l1, l2)
        return out


def counit_functional(A):
    return PairFunctional(A, lambda l1, l2: A.counit(l1) * A.counit(l2))


def convolve(phi, psi, A):
    """(phi * psi)(a (x) b) = phi(a1 (x) b1) psi(a2 (x) b2)."""

    def fn(l1, l2):
        out = Cyc.zero(A.scalar_order)
        for (a1, a2), ca in A.coproduct(l1).terms.items():
            for (b1, b2), cb in A.coproduct(l2).terms.items():
                out = out + ca * cb * phi(a1, b1) * psi(a2, b2)
        return out

    return PairFunctional(A, fn)


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
    if A.is_grouplike_basis():

        def fn(l1, l2):
            v = gamma(l1, l2)
            if v.is_zero():
                raise NotInvertible(
                    f"gamma vanishes at ({A.label_name(l1)},{A.label_name(l2)})",
                    pair=(l1, l2))
            return v.inverse()

        return PairFunctional(A, fn)

    labels = A.finite_labels()
    if labels is None:
        raise NotInvertible("no convolution inverse method: basis not grouplike, "
                            "algebra not finite")
    n = len(labels)
    idx = {l: i for i, l in enumerate(labels)}
    order = A.scalar_order
    rows, rhs = [], []
    eps = counit_functional(A)
    for a in labels:
        for b in labels:
            row = [Cyc.zero(order) for _ in range(n * n)]
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
    psi = PairFunctional(A, lambda l1, l2: table[(l1, l2)])
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
        from .vectors import memoize_table
        self.hopf = A
        self.gamma = gamma
        self.gamma_bar = gamma_bar
        # the four derived functionals are pure; memoise them per label
        self.U = memoize_table(self.U)
        self.Ubar = memoize_table(self.Ubar)
        self.V = memoize_table(self.V)
        self.Vbar = memoize_table(self.Vbar)

    def U(self, label):
        A = self.hopf
        out = Cyc.zero(A.scalar_order)
        for (k1, k2), c in A.coproduct(label).terms.items():
            for l2, c2 in A.antipode(k2).terms.items():
                out = out + c * c2 * self.gamma(k1, l2)
        return out

    def Ubar(self, label):
        A = self.hopf
        out = Cyc.zero(A.scalar_order)
        for (k1, k2), c in A.coproduct(label).terms.items():
            for l1, c1 in A.antipode(k1).terms.items():
                out = out + c * c1 * self.gamma_bar(l1, k2)
        return out

    def V(self, label):
        return self._apply_s_inv(self.U, label)

    def Vbar(self, label):
        return self._apply_s_inv(self.Ubar, label)

    def _apply_s_inv(self, func, label):
        A = self.hopf
        out = Cyc.zero(A.scalar_order)
        for l, c in A.antipode_inv(label).terms.items():
            out = out + c * func(l)
        return out

    def V_elem(self, v):
        out = Cyc.zero(self.hopf.scalar_order)
        for l, c in v.terms.items():
            out = out + c * self.V(l)
        return out

    def Vbar_elem(self, v):
        out = Cyc.zero(self.hopf.scalar_order)
        for l, c in v.terms.items():
            out = out + c * self.Vbar(l)
        return out

    def inverse_data(self, twisted_hopf):
        """gammabar as a cocycle on the twisted algebra (for round trips)."""
        return CocycleData(twisted_hopf, PairFunctional(twisted_hopf, self.gamma_bar.fn),
                           PairFunctional(twisted_hopf, self.gamma.fn))


def trivial_cocycle(A):
    return CocycleData(A, counit_functional(A), counit_functional(A))


def bicharacter_cocycle(A, pairing):
    """gamma(u_a (x) u_b) = zeta^{sum_ij P[i][j] a_i b_j} on a finite or free lattice.

    P is an integer matrix and zeta the primitive root of unity of order
    A.scalar_order, so every value is a root of unity in Q(zeta).
    """
    rank = A.rank
    order = A.scalar_order

    def fn(l1, l2):
        e = 0
        for i in range(rank):
            for j in range(rank):
                if pairing[i][j]:
                    e += pairing[i][j] * l1[i] * l2[j]
        return Cyc.root(order, e)

    gamma = PairFunctional(A, fn)
    return CocycleData(A, gamma, convolution_inverse(gamma, A))


class TwistedHopf(HopfAlgebra):
    """The 2-cocycle twist A_gamma, sharing coalgebra structure with A."""

    def __init__(self, base, data):
        if data.hopf is not base:
            raise ValueError("cocycle data bound to a different algebra")
        self.base = base
        self.data = data
        self.scalar_order = base.scalar_order
        self.name = base.name + "_twisted"
        self._mult_cache = {}
        self._antipode_cache = {}
        self._antipode_inv_cache = {}
        self._star_cache = {}

    def mult(self, l1, l2):
        key = (l1, l2)
        out = self._mult_cache.get(key)
        if out is None:
            A, d = self.base, self.data
            out = Vec(self.scalar_order)
            for (h1, h2, h3), ch in A.sweedler(l1, 3).terms.items():
                for (k1, k2, k3), ck in A.sweedler(l2, 3).terms.items():
                    c = ch * ck * d.gamma(h1, k1) * d.gamma_bar(h3, k3)
                    if c.is_zero():
                        continue
                    for l, cl in A.mult(h2, k2).terms.items():
                        out.add_term(l, c * cl)
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
        out = self._antipode_cache.get(label)
        if out is None:
            A, d = self.base, self.data
            out = Vec(self.scalar_order)
            for (h1, h2, h3), c in A.sweedler(label, 3).terms.items():
                coeff = c * d.U(h1) * d.Ubar(h3)
                if coeff.is_zero():
                    continue
                for l, cl in A.antipode(h2).terms.items():
                    out.add_term(l, coeff * cl)
            self._antipode_cache[label] = out
        return out

    def antipode_inv(self, label):
        out = self._antipode_inv_cache.get(label)
        if out is None:
            A, d = self.base, self.data
            out = Vec(self.scalar_order)
            for (h1, h2, h3), c in A.sweedler(label, 3).terms.items():
                coeff = c * d.V(h1) * d.Vbar(h3)
                if coeff.is_zero():
                    continue
                for l, cl in A.antipode_inv(h2).terms.items():
                    out.add_term(l, coeff * cl)
            self._antipode_inv_cache[label] = out
        return out

    def star(self, label):
        out = self._star_cache.get(label)
        if out is None:
            A, d = self.base, self.data
            out = Vec(self.scalar_order)
            # h^{*_g} = Vbar(h1*) h2* V(h3*); Delta is a *-homomorphism, so
            # the starred Sweedler legs are the stars of the legs.
            for (h1, h2, h3), c in A.sweedler(label, 3).terms.items():
                s1 = A.star(h1)
                s3 = A.star(h3)
                coeff = c.conj() * d.Vbar_elem(s1) * d.V_elem(s3)
                if coeff.is_zero():
                    continue
                for l, cl in A.star(h2).terms.items():
                    out.add_term(l, coeff * cl)
            self._star_cache[label] = out
        return out

    def label_name(self, label):
        return self.base.label_name(label)

    def finite_labels(self):
        return self.base.finite_labels()

    def labels_box(self, box):
        return self.base.labels_box(box)

    def is_grouplike_basis(self):
        return self.base.is_grouplike_basis()


# -- identity suites ---------------------------------------------------------


def verify_cocycle_identities(data, A, triples, reporter, prefix="cocycle",
                              cross_check=True):
    """The cocycle equation, its three equivalent forms, and unitality."""
    g, gb = data.gamma, data.gamma_bar
    eps = counit_functional(A)

    def name(t):
        return ",".join(A.label_name(x) for x in t)

    def equation(t):
        lg, lh, lk = t
        lhs = Cyc.zero(A.scalar_order)
        rhs = Cyc.zero(A.scalar_order)
        for (g1, g2), cg in A.sweedler(lg, 2).terms.items():
            for (h1, h2), chh in A.sweedler(lh, 2).terms.items():
                prod = A.mult(g2, h2)
                lhs = lhs + cg * chh * g(g1, h1) * g.on_elems(prod, A.el(lk))
        for (h1, h2), chh in A.sweedler(lh, 2).terms.items():
            for (k1, k2), ckk in A.sweedler(lk, 2).terms.items():
                prod = A.mult(h2, k2)
                rhs = rhs + chh * ckk * g(h1, k1) * g.on_elems(A.el(lg), prod)
        return f"cocycle equation fails at ({name(t)})" if lhs != rhs else None

    reporter.forall(f"{prefix}.equation", "cocycle.equation", triples, equation)

    def equivalent_ii(t):
        lg, lh, lk = t
        lhs = Cyc.zero(A.scalar_order)
        rhs = Cyc.zero(A.scalar_order)
        for (g1, g2), cg in A.sweedler(lg, 2).terms.items():
            for (h1, h2), chh in A.sweedler(lh, 2).terms.items():
                lhs = lhs + cg * chh * gb.on_elems(A.mult(g1, h1), A.el(lk)) * gb(g2, h2)
        for (h1, h2), chh in A.sweedler(lh, 2).terms.items():
            for (k1, k2), ckk in A.sweedler(lk, 2).terms.items():
                rhs = rhs + chh * ckk * gb.on_elems(A.el(lg), A.mult(h1, k1)) * gb(h2, k2)
        return f"identity (ii) fails at ({name(t)})" if lhs != rhs else None

    reporter.forall(f"{prefix}.equivalent-ii", "cocycle.inverse-equation", triples, equivalent_ii)

    def equivalent_iii(t):
        lg, lh, lk = t
        lhs = Cyc.zero(A.scalar_order)
        rhs = Cyc.zero(A.scalar_order)
        for (g1, g2), cg in A.sweedler(lg, 2).terms.items():
            for (h1, h2), chh in A.sweedler(lh, 2).terms.items():
                for (k1, k2), ckk in A.sweedler(lk, 2).terms.items():
                    c = cg * chh * ckk
                    lhs = lhs + c * g.on_elems(A.mult(g1, h1), A.el(k1)) \
                        * gb.on_elems(A.el(g2), A.mult(h2, k2))
        for (h1, h2), chh in A.sweedler(lh, 2).terms.items():
            rhs = rhs + chh * gb(lg, h1) * g(h2, lk)
        return f"identity (iii) fails at ({name(t)})" if lhs != rhs else None

    reporter.forall(f"{prefix}.equivalent-iii", "cocycle.mixed-identity-left", triples,
                    equivalent_iii)

    def equivalent_iv(t):
        lg, lh, lk = t
        lhs = Cyc.zero(A.scalar_order)
        rhs = Cyc.zero(A.scalar_order)
        for (g1, g2), cg in A.sweedler(lg, 2).terms.items():
            for (h1, h2), chh in A.sweedler(lh, 2).terms.items():
                for (k1, k2), ckk in A.sweedler(lk, 2).terms.items():
                    c = cg * chh * ckk
                    lhs = lhs + c * g.on_elems(A.el(g1), A.mult(h1, k1)) \
                        * gb.on_elems(A.mult(g2, h2), A.el(k2))
        for (h1, h2), chh in A.sweedler(lh, 2).terms.items():
            rhs = rhs + chh * g(lg, h2) * gb(h1, lk)
        return f"identity (iv) fails at ({name(t)})" if lhs != rhs else None

    reporter.forall(f"{prefix}.equivalent-iv", "cocycle.mixed-identity-right", triples,
                    equivalent_iv)

    labels = sorted({l for t in triples for l in t})
    one = A.unit()

    def unital(l):
        left = g.on_elems(A.el(l), one)
        right = g.on_elems(one, A.el(l))
        if left != A.counit(l) or right != A.counit(l):
            return f"unitality fails at {A.label_name(l)}"
        return None

    reporter.forall(f"{prefix}.unital", "cocycle.unitality", labels, unital)

    left = convolve(g, gb, A)
    right = convolve(gb, g, A)
    pairs = {(a, b) for (a, b, _) in triples} | {(b, c) for (_, b, c) in triples}

    def convolution_inverse(ab):
        if left(*ab) != eps(*ab) or right(*ab) != eps(*ab):
            return f"gamma*gammabar != counit at ({name(ab)})"
        return None

    reporter.forall(f"{prefix}.convolution-inverse", "cocycle.convolution-inverse",
                    sorted(pairs), convolution_inverse)

    if cross_check and A.is_grouplike_basis():
        def group_form(t):
            lg, lh, lk = t
            gh = next(iter(A.mult(lg, lh).terms))
            hk = next(iter(A.mult(lh, lk).terms))
            if g(lg, lh) * g(gh, lk) != g(lh, lk) * g(lg, hk):
                return f"group 2-cocycle identity fails at ({name(t)})"
            return None

        reporter.forall(f"{prefix}.grouplike-crosscheck", "cocycle.group-cocycle-form",
                        triples, group_form)


def verify_unitarity_suite(data, A, pairs, reporter, prefix="unitary"):
    """Conjugation laws of a unitary cocycle plus the exchange identities."""
    g, gb = data.gamma, data.gamma_bar

    def name(t):
        return ",".join(A.label_name(x) for x in t)

    def s_star(l):
        # S(l)* as an element
        return A.star_elem(A.antipode(l))

    reporter.forall(f"{prefix}.gamma-conjugation", "unitarity.gamma-conjugation", pairs,
                    lambda ab: f"conj gamma != gammabar(S*().,S*().) at ({name(ab)})"
                    if g(*ab).conj() != gb.on_elems(s_star(ab[0]), s_star(ab[1])) else None)
    reporter.forall(f"{prefix}.gammabar-conjugation", "unitarity.inverse-conjugation", pairs,
                    lambda ab: f"conj gammabar != gamma(S*().,S*().) at ({name(ab)})"
                    if gb(*ab).conj() != g.on_elems(s_star(ab[0]), s_star(ab[1])) else None)

    labels = sorted({l for p in pairs for l in p})

    def vbar_conjugation(l):
        lhs = Cyc.zero(A.scalar_order)
        for l2, c in A.star(l).terms.items():
            lhs = lhs + c.conj() * data.Vbar(l2)
        return f"conj Vbar(h*) != V(h) at {A.label_name(l)}" if lhs.conj() != data.V(l) else None

    reporter.forall(f"{prefix}.vbar-conjugation", "unitarity.vbar-v-conjugation", labels,
                    vbar_conjugation)

    def convolution_inverses(f, fbar, witness):
        """Defect of f * fbar = fbar * f = counit at a label."""
        def defect(l):
            acc_l = Cyc.zero(A.scalar_order)
            acc_r = Cyc.zero(A.scalar_order)
            for (k1, k2), c in A.coproduct(l).terms.items():
                acc_l = acc_l + c * f(k1) * fbar(k2)
                acc_r = acc_r + c * fbar(k1) * f(k2)
            if acc_l != A.counit(l) or acc_r != A.counit(l):
                return f"{witness} at {A.label_name(l)}"
            return None
        return defect

    reporter.forall(f"{prefix}.u-ubar-inverse", "twist.u-convolution-inverse", labels,
                    convolution_inverses(data.U, data.Ubar, "U*Ubar != counit"))
    reporter.forall(f"{prefix}.v-vbar-inverse", "twist.v-convolution-inverse", labels,
                    convolution_inverses(data.V, data.Vbar, "V*Vbar != counit"))

    def vbar_of_star(v):
        out = Cyc.zero(A.scalar_order)
        for l, c in v.terms.items():
            for l2, c2 in A.star(l).terms.items():
                out = out + c.conj() * c2 * data.Vbar(l2)
        return out

    def vbar_exchange(hk):
        # Vbar(k1*) Vbar(h1*) gamma(k2* (x) h2*) = gammabar(S(h1)* (x) S(k1)*) Vbar(k2* h2*)
        lh, lk = hk
        lhs = Cyc.zero(A.scalar_order)
        rhs = Cyc.zero(A.scalar_order)
        for (k1, k2), ckk in A.sweedler(lk, 2).terms.items():
            for (h1, h2), chh in A.sweedler(lh, 2).terms.items():
                c = (ckk * chh).conj()
                lhs = lhs + c * vbar_of_star(A.el(k1)) * vbar_of_star(A.el(h1)) \
                    * g.on_elems(A.star(k2), A.star(h2))
                rhs = rhs + c * gb.on_elems(s_star(h1), s_star(k1)) \
                    * vbar_of_star(A.mult_elem(A.el(h2), A.el(k2)))
        return f"vbar exchange identity fails at ({name(hk)})" if lhs != rhs else None

    reporter.forall(f"{prefix}.vbar-exchange", "unitarity.vbar-exchange-identity", pairs,
                    vbar_exchange)

    def vbar_merge(hk):
        # gamma(S(h1)* (x) S(k1)*) Vbar(k2*) Vbar(h2*) = Vbar(k1* h1*) gammabar(k2* (x) h2*)
        lh, lk = hk
        lhs = Cyc.zero(A.scalar_order)
        rhs = Cyc.zero(A.scalar_order)
        for (k1, k2), ckk in A.sweedler(lk, 2).terms.items():
            for (h1, h2), chh in A.sweedler(lh, 2).terms.items():
                c = (ckk * chh).conj()
                lhs = lhs + c * g.on_elems(s_star(h1), s_star(k1)) \
                    * vbar_of_star(A.el(k2)) * vbar_of_star(A.el(h2))
                rhs = rhs + c * vbar_of_star(A.mult_elem(A.el(h1), A.el(k1))) \
                    * gb.on_elems(A.star(k2), A.star(h2))
        return f"vbar merge identity fails at ({name(hk)})" if lhs != rhs else None

    reporter.forall(f"{prefix}.vbar-merge", "unitarity.vbar-merge-identity", pairs, vbar_merge)

    def u_exchange(hk):
        # U(h1) gammabar(S(h2) (x) k) = gamma(h1 (x) S(h2) k)
        lh, lk = hk
        lhs = Cyc.zero(A.scalar_order)
        rhs = Cyc.zero(A.scalar_order)
        for (h1, h2), chh in A.sweedler(lh, 2).terms.items():
            lhs = lhs + chh * data.U(h1) * gb.on_elems(A.antipode(h2), A.el(lk))
            rhs = rhs + chh * g.on_elems(
                A.el(h1), A.mult_elem(A.antipode(h2), A.el(lk)))
        return f"u exchange identity fails at ({name(hk)})" if lhs != rhs else None

    reporter.forall(f"{prefix}.u-exchange", "twist.u-exchange-identity", pairs, u_exchange)

    if A.is_grouplike_basis():
        # on a grouplike basis, unitarity is exactly pointwise unit modulus
        one = Cyc.one(A.scalar_order)
        reporter.forall(f"{prefix}.modulus", "unitarity.unit-modulus", pairs,
                        lambda ab: f"|gamma| != 1 at ({name(ab)})"
                        if g(*ab) * g(*ab).conj() != one else None)
