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

from .modules import (
    ComodAlgebra, FreeModule, Morphism, TensorModule, conj_of, unconj)
from .vectors import Vec


class TwistedComodule(ComodAlgebra):
    """B_gamma: same labels and coaction, deformed product and involution."""

    def __init__(self, base, data, twisted_hopf):
        from .vectors import memoize_table
        super().__init__(twisted_hopf)
        self.untwisted = base
        self.data = data
        self.mult = memoize_table(self.mult)
        self.star = memoize_table(self.star)

    def mult(self, l1, l2):
        # a ._g b = gamma(a_(-1) (x) b_(-1)) a_(0) b_(0)
        B, d = self.untwisted, self.data
        return B.coact(l1).apply2(
            B.coact(l2), lambda x, y: B.mult(x[1], y[1]).scale(d.gamma(x[0], y[0])))

    def unit(self):
        return self.untwisted.unit()

    def star(self, label):
        # b^{*_g} = Vbar(b_(-1)*) b_(0)*
        B, d = self.untwisted, self.data
        return B.coact(label).apply_conj(
            lambda ab: B.star(ab[1]).scale(B.hopf.star(ab[0]).evaluate(d.Vbar)))

    def coact(self, label):
        return self.untwisted.coact(label)

    def label_name(self, label):
        return self.untwisted.label_name(label)

    def generators(self):
        return self.untwisted.generators()


class TwistedModule(FreeModule):
    """Gamma(E) over B_gamma: same basis, actions deformed through gamma."""

    def __init__(self, inner, data, twisted_base):
        super().__init__(twisted_base, inner.basis)
        inner.check_coinvariant_basis()
        self.inner = inner
        self.data = data

    def basis_name(self, i):
        return self.inner.basis_name(i)

    def r_act(self, i, b_label):
        # e_i ._g b = gamma(e_i_(-1) (x) b_(-1)) e_i_(0) b_(0); the basis is
        # coinvariant, so this is the untwisted straightening (whose output
        # keys are again valid left normal forms here).
        E, d = self.inner, self.data
        B = E.base

        def term(e, b):
            (ae, be, i2), (ab, b0) = e, b
            return E.lmul(B.el(be), E.r_act(i2, b0)).scale(d.gamma(ae, ab))

        return E.coact_basis(i).apply2(B.coact(b_label), term)

    def l_to_r(self, b_label, i):
        # b ._g e_i = gamma(b_(-1) (x) e_i_(-1)) b_(0) e_i_(0)
        E, d = self.inner, self.data
        B = E.base

        def term(b, e):
            (ab, b0), (ae, be, i2) = b, e
            return B.mult(b0, be).apply(lambda b2: E.l_to_r(b2, i2)).scale(d.gamma(ab, ae))

        return B.coact(b_label).apply2(E.coact_basis(i), term)

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

    def term(v, w):
        # (b1 e_i1) (x) (b2 f_j2) in dst is b1 ((e_i1 . b2) (x) f_j2)
        (a1, b1, i1), (a2, b2, j2) = v, w
        moved = dst.left.lmul(B.el(b1, weight(a1, a2)), dst.left.r_act(i1, b2))
        return moved.map_keys(lambda bi: (bi[0], (bi[1], j2)))

    return elem.apply(lambda k: V.coact(Vec.single(elem.order, (k[0], k[1][0]))).apply2(
        W.coact_basis(k[1][1]), term))


def twist_tensor_morphism(T, data, src_tw, dst_tw):
    """T_g = phi^-1 . Gamma(T) . phi for T between tensor modules."""
    src_unt = TensorModule(untwisted_of(src_tw.left), untwisted_of(src_tw.right))
    dst_unt = TensorModule(untwisted_of(dst_tw.left), untwisted_of(dst_tw.right))
    table = {}
    for key in src_tw.basis:
        moved = phi_map(data, src_tw, src_unt, src_tw.el(key))
        img = T(moved)
        table[key] = phi_inv_map(data, dst_tw, dst_unt, img)
    return Morphism(src_tw, dst_tw, table)


# -- bar structure ------------------------------------------------------------


def bar_map(f, src, dst):
    """fbar(xbar) = (f(x))bar: the conjugate of a map f from src into dst."""
    return lambda elem: conj_of(dst, f(unconj(src, elem)))


def upsilon(tensor_mod, out_tensor, elem):
    """Upsilon: (M (x) N)bar -> Nbar (x) Mbar, (m (x) n)bar -> nbar (x) mbar."""
    M = tensor_mod.left
    Nbar = out_tensor.left

    def swap(k):
        b, (i, j) = k
        return out_tensor.pure(Nbar.el(("bar", j)), conj_of(M, M.from_b(M.base.el(b), i)))

    return elem.apply(
        lambda key: unconj(tensor_mod, Vec.single(elem.order, key)).apply_conj(swap))


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
    def transport(k):
        a, b, i = k
        return conj_of(dst, dst.from_b(dst.base.el(b), i)).scale(A.star(a).evaluate(weight))

    return elem.apply(lambda key: src.coact(
        unconj(src, Vec.single(elem.order, key))).apply_conj(transport))


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

    def term(k):
        (a1, a2), b, i = k
        w = hom_apply(hom_mod, f_elem, E.from_b(B.el(b), i))
        # gamma(a1 (x) S(a2) w_(-1)) w_(0)
        return B.coact_elem(w).apply(lambda ab: B.el(ab[1], A.mult_elem(
            A.antipode(a2), A.el(ab[0])).evaluate(lambda l: data.gamma(a1, l))))

    return lambda v: E.coact_iter(v, 2).apply(term)


def tensor_map_pair(src_tensor, dst_tensor, f_left, f_right, elem):
    """(f_left (x) f_right) on a tensor element, for left-linear leg maps."""
    def on_key(k):
        b, (i, j) = k
        pure = dst_tensor.pure(f_left(src_tensor.left.el(i)), f_right(src_tensor.right.el(j)))
        return dst_tensor.lmul(dst_tensor.base.el(b), pure)

    return elem.apply(on_key)
