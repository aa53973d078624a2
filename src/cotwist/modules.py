"""Comodule algebras and relative Hopf modules as free-basis presentations.

A module element is a Vec over keys (b_label, basis_id) meaning the left
normal form  sum c * (b . e_i);  this representative is unique because the
modules are free, which is what makes every equality in the engine exactly
decidable.  Balanced tensors are normalised by pushing coefficients to the
leftmost leg through the right-action straightening tables.

All module bases are required to be coinvariant (checked at construction);
every model in scope has coinvariant bases, while module *elements* carry
arbitrary weights.

`FreeModule.lmul`, `rmul` and `_coact_key` are hand-written loops, the only
fast paths here, each kept by its row of BENCH_31.json (`modules.lmul_loop`,
`modules.rmul_loop`, `modules.coact_key_loop`): their `Vec.apply2` forms
make more calls.
"""

from __future__ import annotations

from .hopf import LabelAlgebra
from .vectors import Vec, memoize_tables


class ComodAlgebra(LabelAlgebra):
    """Presentation of a left comodule *-algebra B over a Hopf algebra A."""

    def __init__(self, hopf):
        self.hopf = hopf
        self.scalar_order = hopf.scalar_order
        memoize_tables(self, "basis")

    def mult(self, l1, l2):
        raise NotImplementedError

    def unit(self):
        raise NotImplementedError

    def star(self, label):
        raise NotImplementedError

    def coact(self, label):
        """Vec over (a_label, b_label)."""
        raise NotImplementedError

    def label_name(self, label):
        return str(label)

    def generators(self):
        """Labels used for sampled Leibniz/bilinearity checks and emission."""
        raise NotImplementedError

    def coact_elem(self, v):
        return v.apply(self.coact)


class SelfComodule(ComodAlgebra):
    """B = A as a comodule algebra over itself (coaction = coproduct).

    Covers both torus coordinate algebras (A = C[Z^n]) and the regular
    function-algebra instruments.
    """

    def mult(self, l1, l2):
        return self.hopf.mult(l1, l2)

    def unit(self):
        return self.hopf.unit()

    def star(self, label):
        return self.hopf.star(label)

    def coact(self, label):
        return self.hopf.coproduct(label)

    def label_name(self, label):
        return self.hopf.label_name(label)

    def generators(self):
        fin = self.hopf.finite_labels()
        if fin is not None:
            return fin
        gens = []
        for i in range(self.hopf.rank):
            for s in (1, -1):
                lab = [0] * self.hopf.rank
                lab[i] = s
                gens.append(self.hopf.normalise(tuple(lab)))
        return list(dict.fromkeys(gens))


def unit_coaction(mod, v):
    """1 (x) v: what the coaction of mod gives on v exactly when v is coinvariant."""
    return _flat(mod.base.hopf.unit().tensor(v))


def _flat(v):
    """A Vec over (a, (b, i)) keys as one over (a, b, i): coaction keys."""
    return v.map_keys(lambda k: (k[0], *k[1]))


class FreeModule:
    """A relative Hopf module, free as a left B-module on a finite basis."""

    def __init__(self, base, basis):
        self.base = base
        self.basis = list(basis)
        self.scalar_order = base.scalar_order
        memoize_tables(self, "r_act", "l_to_r", "coact_basis", "_coact_key")

    # tables ---------------------------------------------------------------

    def r_act(self, i, b_label):
        """e_i . b in left normal form: Vec over (b_label, basis_id)."""
        raise NotImplementedError

    def l_to_r(self, b_label, i):
        """b . e_i in right normal form: Vec over (basis_id, b_label)."""
        raise NotImplementedError

    def coact_basis(self, i):
        """delta(e_i) as Vec over (a_label, b_label, basis_id)."""
        raise NotImplementedError

    def basis_name(self, i):
        return str(i)

    # element level ----------------------------------------------------------

    def el(self, i, coeff=1):
        """The basis element e_i (left coefficient 1_B)."""
        return self.from_b(self.base.unit().scale(coeff), i)

    def from_b(self, b_vec, i):
        """(b_vec) . e_i."""
        return b_vec.map_keys(lambda b: (b, i))

    def zero(self):
        return Vec(self.scalar_order)

    def lmul(self, b_vec, elem):
        out = Vec(self.scalar_order)
        for (b, i), c in elem.terms.items():
            for b2, c2 in b_vec.terms.items():
                for b3, c3 in self.base.mult(b2, b).terms.items():
                    out.add_term((b3, i), c * c2 * c3)
        return out

    def rmul(self, elem, b_vec):
        out = Vec(self.scalar_order)
        for (b, i), c in elem.terms.items():
            for b2, c2 in b_vec.terms.items():
                for (b3, i2), c3 in self.r_act(i, b2).terms.items():
                    for b4, c4 in self.base.mult(b, b3).terms.items():
                        out.add_term((b4, i2), c * c2 * c3 * c4)
        return out

    def coact(self, elem):
        """delta(elem) as Vec over (a_label, b_label, basis_id)."""
        return elem.apply(self._coact_key)

    def _coact_key(self, key):
        """delta(b . e_i) for a key (b, i), memoised."""
        b, i = key
        out = Vec(self.scalar_order)
        for (a1, b1), c1 in self.base.coact(b).terms.items():
            for (a2, b2, i2), c2 in self.coact_basis(i).terms.items():
                for a3, ca in self.base.hopf.mult(a1, a2).terms.items():
                    for b3, cb in self.base.mult(b1, b2).terms.items():
                        out.add_term((a3, b3, i2), c1 * c2 * ca * cb)
        return out

    def coact_iter(self, elem, legs):
        """Iterated coaction: Vec over (a,...,a, b_label, basis_id), `legs` A-legs."""
        A = self.base.hopf
        return self.coact(elem).apply(
            lambda k: A.sweedler(k[0], legs).map_keys(lambda alegs: (alegs, k[1], k[2])))

    def describe(self, elem):
        return elem.describe(lambda k: f"{self.base.label_name(k[0])}.{self.basis_name(k[1])}")

    def check_coinvariant_basis(self):
        for i in self.basis:
            if self.coact_basis(i) != unit_coaction(self, self.el(i)):
                raise ValueError(f"module basis {self.basis_name(i)} is not coinvariant")


class CentralBasisModule(FreeModule):
    """Free module on a central, coinvariant basis (the in-scope situation)."""

    def r_act(self, i, b_label):
        return Vec.single(self.scalar_order, (b_label, i))

    def l_to_r(self, b_label, i):
        return Vec.single(self.scalar_order, (i, b_label))

    def coact_basis(self, i):
        return unit_coaction(self, self.el(i))


class TensorModule(FreeModule):
    """E (x)_B F for free left modules, basis pairs, left normal form."""

    def __init__(self, left, right):
        if left.base is not right.base:
            raise ValueError("tensor factors live over different algebras")
        basis = [(i, j) for i in left.basis for j in right.basis]
        super().__init__(left.base, basis)
        self.left = left
        self.right = right

    def basis_name(self, key):
        i, j = key
        return f"{self.left.basis_name(i)}(x){self.right.basis_name(j)}"

    def r_act(self, key, b_label):
        # (e_i (x) f_j) b = (e_i . b1) (x) f_j2 for f_j b = b1 f_j2
        i, j = key
        return self.right.r_act(j, b_label).apply(lambda bj: self.left.r_act(i, bj[0]).map_keys(
            lambda bi: (bi[0], (bi[1], bj[1]))))

    def l_to_r(self, b_label, key):
        # b (e_i (x) f_j) = e_i2 (x) (b1 . f_j) for b e_i = e_i2 b1
        i, j = key
        return self.left.l_to_r(b_label, i).apply(lambda ib: self.right.l_to_r(ib[1], j).map_keys(
            lambda jb: ((ib[0], jb[0]), jb[1])))

    def coact_basis(self, key):
        i, j = key
        A = self.base.hopf

        def term(x, y):
            # (a1 (x) b1 e_i2)(a2 (x) b2 f_j2) = a1 a2 (x) b1 ((e_i2 . b2) (x) f_j2)
            (a1, b1, i2), (a2, b2, j2) = x, y
            moved = self.left.lmul(self.base.el(b1), self.left.r_act(i2, b2))
            return _flat(A.mult(a1, a2).tensor(moved.map_keys(lambda bi: (bi[0], (bi[1], j2)))))

        return self.left.coact_basis(i).apply2(self.right.coact_basis(j), term)

    def pure(self, x, y):
        """x (x) y in left normal form (pushes y's coefficients into x)."""
        return y.apply(lambda bj: self.left.rmul(x, self.base.el(bj[0])).map_keys(
            lambda bi: (bi[0], (bi[1], bj[1]))))


class ConjugateModule(FreeModule):
    """The conjugate module: b.mbar = (m b*)bar, mbar.b = (b* m)bar."""

    def __init__(self, inner):
        basis = [("bar", i) for i in inner.basis]
        super().__init__(inner.base, basis)
        self.inner = inner

    def basis_name(self, key):
        return f"bar({self.inner.basis_name(key[1])})"

    def r_act(self, key, b_label):
        # e_i bar . b = (b* e_i)bar
        return conj_of(self.inner, self.inner.from_b(self.base.star(b_label), key[1]))

    def l_to_r(self, b_label, key):
        # b . e_i bar = (e_i b*)bar, and (c e_j)bar = e_j bar . c*
        e_bstar = self.base.star(b_label).apply(lambda bs: self.inner.r_act(key[1], bs))
        return e_bstar.apply_conj(
            lambda bi: self.base.star(bi[0]).map_keys(lambda b: (("bar", bi[1]), b)))

    def coact_basis(self, key):
        # a (x) b e_i2  ->  a* (x) (b e_i2)bar
        A = self.base.hopf
        return _flat(self.inner.coact_basis(key[1]).apply_conj(lambda k: A.star(k[0]).tensor(
            conj_of(self.inner, self.inner.from_b(self.base.el(k[1]), k[2])))))


def conj_of(mod, elem):
    """The antilinear map  m -> mbar  from mod to its ConjugateModule keys."""
    # (b e_i)bar: rewrite right-normal, then (e_j c)bar = c* e_j bar
    return elem.apply_conj(lambda bi: mod.l_to_r(*bi).apply_conj(
        lambda ib: mod.base.star(ib[1]).map_keys(lambda b: (b, ("bar", ib[0])))))


def unconj(mod, elem):
    """Inverse of conj_of: from ConjugateModule keys back to mod."""
    # b . e_i bar = (e_i . b*)bar, so the underlying element is e_i . b*
    return elem.apply_conj(
        lambda k: mod.rmul(mod.el(k[1][1]), mod.base.star(k[0])))


class HomModule(FreeModule):
    """Hom_B(E, B) for E free on a central coinvariant basis.

    Basis: dual functionals e^i with e^i(e_j) = delta_ij 1_B; key (b, dual-i)
    stands for b.e^i, where (b.f)(x) = f(x b).
    """

    def __init__(self, inner):
        basis = [("dual", i) for i in inner.basis]
        super().__init__(inner.base, basis)
        self.inner = inner

    def basis_name(self, key):
        return f"dual({self.inner.basis_name(key[1])})"

    def r_act(self, key, b_label):
        # (e^i . b)(e_j) = e^i(e_j) b = delta_ij b; with a central basis this
        # is b . e^i again
        return self.inner.l_to_r(b_label, key[1]).map_keys(lambda ib: (ib[1], ("dual", ib[0])))

    def l_to_r(self, b_label, key):
        return self.inner.r_act(key[1], b_label).map_keys(lambda bi: (("dual", bi[1]), bi[0]))

    def coact_basis(self, i):
        return unit_coaction(self, self.el(i))


def hom_apply(hom_mod, f_elem, e_elem):
    """Evaluate a Hom_B(E,B) element on an E element, returning a B element."""
    inner = hom_mod.inner
    base = hom_mod.base

    def ev(f, e):
        # (bf . e^i)(be e_j) = be e^i(e_j . bf)
        (bf, (_, i)), (be, j) = f, e
        return inner.r_act(j, bf).apply(
            lambda bj: base.mult(be, bj[0]) if bj[1] == i else base.zero())

    return f_elem.apply2(e_elem, ev)


def hom_coact(hom_mod, f_elem):
    """Coaction on Hom via  f_(-1) (x) f_(0)(e) = S(e_(-1)) f(e_(0))_(-1) (x) f(e_(0))_(0).

    Returns, per inner basis element e_i, the element of A (x) B obtained
    from the right side; used to verify covariance of Hermitian tables.
    """
    inner = hom_mod.inner
    base = hom_mod.base
    A = base.hopf

    def term(k):
        # S(e_(-1)) f(e_(0))_(-1) (x) f(e_(0))_(0) for e = b e_i2
        a, b, i2 = k
        val = hom_apply(hom_mod, f_elem, inner.from_b(base.el(b), i2))
        return base.coact_elem(val).apply(
            lambda ab: A.mult_elem(A.antipode(a), A.el(ab[0])).tensor(base.el(ab[1])))

    return {i: inner.coact_basis(i).apply(term) for i in inner.basis}


class Morphism:
    """A left-linear map between free modules given by its basis table."""

    def __init__(self, src, dst, table):
        self.src = src
        self.dst = dst
        self.table = dict(table)

    def __call__(self, elem):
        return elem.apply(lambda bi: self.dst.lmul(self.src.base.el(bi[0]), self.table[bi[1]]))

    @staticmethod
    def identity(mod):
        return Morphism(mod, mod, {i: mod.el(i) for i in mod.basis})


def right_linear_defect(f, b_label, i):
    lhs = f(f.src.rmul(f.src.el(i), f.src.base.el(b_label)))
    rhs = f.dst.rmul(f(f.src.el(i)), f.dst.base.el(b_label))
    return lhs - rhs


def covariance_sides(f, src, dst, elem):
    """delta(f(elem)) and (id (x) f)(delta(elem)) for a map f: src -> dst."""
    return dst.coact(f(elem)), src.coact(elem).apply(
        lambda k: f(src.from_b(src.base.el(k[1]), k[2])).map_keys(lambda bi: (k[0], *bi)))
