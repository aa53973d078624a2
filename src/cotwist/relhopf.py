"""The cocycle twist functor on comodule algebras and relative Hopf modules.

Everything here realises the deformation dictionary

    a ._g b       = gamma(a_(-1) (x) b_(-1)) a_(0) b_(0)
    b^{*_g}       = Vbar(b_(-1)*) b_(0)*
    b ._g m       = gamma(b_(-1) (x) m_(-1)) b_(0) m_(0)      (and mirrored)
    phi(v (x) w)  = gamma(v_(-1) (x) w_(-1)) v_(0) (x) w_(0)
    T_g           = phi^-1 . Gamma(T) . phi
    N(ebar)       = Vbar(e_(-1)*) (e_(0))bar
    S(f)(v)       = gamma(v_(-2) (x) S(v_(-1)) f(v_(0))_(-1)) f(v_(0))_(0)

with exact scalars throughout.  Twisted modules share their basis with the
untwisted ones (the identity map is the underlying vector space map), so
the content of each formula shows up when elements carry nontrivial
weights, and in the *-structures.
"""

from __future__ import annotations

from .cyclotomic import Cyc
from .modules import (
    ComodAlgebra, ConjugateModule, FreeModule, Morphism, TensorModule, conj_of, unconj)
from .vectors import Vec


class TwistedComodule(ComodAlgebra):
    """B_gamma: same labels and coaction, deformed product and involution."""

    def __init__(self, base, data, twisted_hopf, name=None):
        super().__init__(twisted_hopf, name or base.name + "_tw")
        self.untwisted = base
        self.data = data
        self._mult_cache = {}
        self._star_cache = {}

    def mult(self, l1, l2):
        key = (l1, l2)
        out = self._mult_cache.get(key)
        if out is None:
            d = self.data
            B = self.untwisted
            out = Vec(self.scalar_order)
            for (a1, b1), c1 in B.coact(l1).terms.items():
                for (a2, b2), c2 in B.coact(l2).terms.items():
                    c = c1 * c2 * d.gamma(a1, a2)
                    if c.is_zero():
                        continue
                    for b3, c3 in B.mult(b1, b2).terms.items():
                        out.add_term(b3, c * c3)
            self._mult_cache[key] = out
        return out

    def unit(self):
        return self.untwisted.unit()

    def star(self, label):
        out = self._star_cache.get(label)
        if out is None:
            d = self.data
            B = self.untwisted
            A = B.hopf
            out = Vec(self.scalar_order)
            # b^{*_g} = Vbar(b_(-1)*) b_(0)*
            for (a, b), c in B.coact(label).terms.items():
                for a2, ca in A.star(a).terms.items():
                    coeff = c.conj() * ca * d.Vbar(a2)
                    if coeff.is_zero():
                        continue
                    for b2, cb in B.star(b).terms.items():
                        out.add_term(b2, coeff * cb)
            self._star_cache[label] = out
        return out

    def coact(self, label):
        return self.untwisted.coact(label)

    def label_name(self, label):
        return self.untwisted.label_name(label)

    def generators(self):
        return self.untwisted.generators()


class TwistedModule(FreeModule):
    """Gamma(E) over B_gamma: same basis, actions deformed through gamma."""

    def __init__(self, inner, data, twisted_base, name=None):
        super().__init__(twisted_base, inner.basis, name or f"tw({inner.name})")
        inner.check_coinvariant_basis()
        self.inner = inner
        self.data = data

    def basis_name(self, i):
        return self.inner.basis_name(i)

    def r_act(self, i, b_label):
        # e_i ._g b = gamma(e_i_(-1) (x) b_(-1)) e_i_(0) b_(0); the basis is
        # coinvariant, so this is the untwisted straightening (whose output
        # keys are again valid left normal forms here).
        d = self.data
        B = self.inner.base
        out = Vec(self.scalar_order)
        for (ab, b0), cb in B.coact(b_label).terms.items():
            for (ae, be, i2), ce in self.inner.coact_basis(i).terms.items():
                c = cb * ce * d.gamma(ae, ab)
                if c.is_zero():
                    continue
                for (b2, i3), c2 in self.inner.r_act(i2, b0).terms.items():
                    for b3, c3 in B.mult(be, b2).terms.items():
                        out.add_term((b3, i3), c * c2 * c3)
        return out

    def l_to_r(self, b_label, i):
        d = self.data
        B = self.inner.base
        out = Vec(self.scalar_order)
        for (ab, b0), cb in B.coact(b_label).terms.items():
            for (ae, be, i2), ce in self.inner.coact_basis(i).terms.items():
                c = cb * ce * d.gamma(ab, ae)
                if c.is_zero():
                    continue
                for b2, c2 in B.mult(b0, be).terms.items():
                    for (i3, b3), c3 in self.inner.l_to_r(b2, i2).terms.items():
                        out.add_term((i3, b3), c * c2 * c3)
        return out

    def coact_basis(self, i):
        return self.inner.coact_basis(i)


def untwisted_of(mod):
    """The untwisted module underlying a TwistedModule (identity otherwise)."""
    return mod.inner if isinstance(mod, TwistedModule) else mod


# -- the monoidal isomorphism phi -------------------------------------------


def phi_map(data, tensor_tw, tensor_unt, elem):
    """phi: Gamma(V) (x)_{B_g} Gamma(W) -> Gamma(V (x)_B W) on normal forms.

    tensor_tw = TensorModule(Gamma(V), Gamma(W)); tensor_unt is the plain
    TensorModule(V, W) whose keys also represent Gamma(V (x) W).
    """
    return _phi(data.gamma, tensor_tw, tensor_unt, elem)


def phi_inv_map(data, tensor_tw, tensor_unt, elem):
    """phi^-1: Gamma(V (x)_B W) -> Gamma(V) (x)_{B_g} Gamma(W)."""
    return _phi(data.gamma_bar, tensor_unt, tensor_tw, elem)


def _phi(weight, src, dst, elem):
    """Move a normal form of the tensor module src into dst, weighting the
    coaction legs (v_(-1), w_(-1)) by `weight`: gamma for phi, gammabar
    for phi^-1."""
    V, W = src.left, src.right
    B = dst.base
    out = Vec(dst.scalar_order)
    for (b, (i, j)), c in elem.terms.items():
        vco = V.coact(Vec.single(elem.order, (b, i), c))
        for (a2, b2, j2), c2 in W.coact_basis(j).terms.items():
            for (a1, b1, i1), c1 in vco.terms.items():
                s = c1 * c2 * weight(a1, a2)
                if s.is_zero():
                    continue
                # assemble (b1 e_i1) (x) (b2 f_j2) in dst
                for (b3, i3), c3 in dst.left.r_act(i1, b2).terms.items():
                    for b4, c4 in B.mult(b1, b3).terms.items():
                        out.add_term((b4, (i3, j2)), s * c3 * c4)
    return out


def twist_tensor_morphism(T, data, src_tw, dst_tw, name=None):
    """T_g = phi^-1 . Gamma(T) . phi for T between tensor modules."""
    src_unt = TensorModule(untwisted_of(src_tw.left), untwisted_of(src_tw.right))
    dst_unt = TensorModule(untwisted_of(dst_tw.left), untwisted_of(dst_tw.right))
    table = {}
    for key in src_tw.basis:
        moved = phi_map(data, src_tw, src_unt, src_tw.el(key))
        img = T(moved)
        table[key] = phi_inv_map(data, dst_tw, dst_unt, img)
    return Morphism(src_tw, dst_tw, table, name or f"tw({T.name})")


# -- bar structure ------------------------------------------------------------


def bar_morphism(f, src_bar):
    """fbar(xbar) = (f(x))bar between conjugate modules."""
    def apply(elem):
        return conj_of(f.dst, f(unconj(src_bar, elem)))
    return apply


def upsilon(tensor_mod, bar_tensor, out_tensor, elem):
    """Upsilon: (M (x) N)bar -> Nbar (x) Mbar, (m (x) n)bar -> nbar (x) mbar."""
    M = tensor_mod.left
    Nbar = out_tensor.left
    out = Vec(elem.order)
    for key, c in elem.terms.items():
        inner = unconj(bar_tensor, Vec.single(elem.order, key, 1))
        for (b, (i, j)), d in inner.terms.items():
            nbar = Nbar.el(("bar", j))
            mbar = conj_of(M, M.from_b(M.base.el(b), i))
            piece = out_tensor.pure(nbar, mbar)
            out = out + piece.scale(c * d.conj())
    return out


def bb_map(mod, bar_mod, elem):
    """bb: M -> barbar(M), m -> (mbar)bar."""
    return conj_of(bar_mod, conj_of(mod, elem))


# -- the isomorphisms N and S -------------------------------------------------


def conj_twist_iso(data, GE, elem):
    """N: bar(Gamma(E)) -> Gamma(Ebar), N(ebar) = Vbar(e_(-1)*) (e_(0))bar."""
    return _conj_transport(data.Vbar, GE.inner.base.hopf, GE, GE.inner, elem)


def conj_twist_iso_inv(data, GE, elem):
    """N^-1: Gamma(Ebar) -> bar(Gamma(E)), with V in place of Vbar."""
    return _conj_transport(data.V, GE.inner.base.hopf, GE.inner, GE, elem)


def _conj_transport(weight, A, src, dst, elem):
    """bar(src) -> bar(dst) on shared keys: (e)bar -> weight(e_(-1)*) (e_(0))bar,
    with * taken in the untwisted Hopf algebra A."""
    src_bar = ConjugateModule(src)
    out = Vec(elem.order)
    for key, c in elem.terms.items():
        e = unconj(src_bar, Vec.single(elem.order, key, 1))
        for (a, b, i), d in src.coact(e).terms.items():
            scalar = Cyc.zero(elem.order)
            for a2, ca in A.star(a).terms.items():
                scalar = scalar + ca * weight(a2)
            if scalar.is_zero():
                continue
            piece = conj_of(dst, dst.from_b(dst.base.el(b), i))
            out = out + piece.scale(c * (d.conj() * scalar))
    return out


def conj_twist_fake_identity(data, GE, elem):
    """The deliberately wrong 'identity' comparison map (Vbar omitted)."""
    E = GE.inner
    bar_GE = ConjugateModule(GE)
    out = Vec(elem.order)
    for key, c in elem.terms.items():
        m = unconj(bar_GE, Vec.single(elem.order, key, 1))
        piece = conj_of(E, m)
        out = out + piece.scale(c)
    return out


def hom_twist_iso(data, hom_mod, f_elem):
    """S: Gamma(Hom_B(E,B)) -> Hom_{B_g}(Gamma(E),B_g) as an evaluator.

    Returns a function taking a Gamma(E) element to the B_gamma element

        S(f)(v) = gamma(v_(-2) (x) S(v_(-1)) f(v_(0))_(-1)) f(v_(0))_(0),

    computed with the untwisted Sweedler machinery (the coactions agree).
    """
    from .modules import hom_apply

    E = hom_mod.inner
    B = E.base
    A = B.hopf

    def apply(v):
        out = Vec(v.order)
        for (alegs, b, i), c in E.coact_iter(v, 2).terms.items():
            a1, a2 = alegs
            w = hom_apply(hom_mod, f_elem, E.from_b(B.el(b), i))
            for (a3, b2), c2 in B.coact_elem(w).terms.items():
                sval = Cyc.zero(v.order)
                for a4, c4 in A.antipode(a2).terms.items():
                    for a5, c5 in A.mult(a4, a3).terms.items():
                        sval = sval + c4 * c5 * data.gamma(a1, a5)
                if sval.is_zero():
                    continue
                out.add_term(b2, c * c2 * sval)
        return out

    return apply


def tensor_map_pair(src_tensor, dst_tensor, f_left, f_right, elem):
    """(f_left (x) f_right) on a tensor element, for left-linear leg maps."""
    out = Vec(elem.order)
    for (b, (i, j)), c in elem.terms.items():
        xl = f_left(src_tensor.left.el(i))
        xr = f_right(src_tensor.right.el(j))
        piece = dst_tensor.pure(xl, xr)
        piece = dst_tensor.lmul(dst_tensor.base.el(b), piece)
        out = out + piece.scale(c)
    return out
