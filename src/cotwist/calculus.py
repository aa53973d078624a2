"""Covariant *-differential calculi, complex structures, holomorphic data.

A calculus is a graded family of free modules with wedge/d/star tables on
basis forms, extended to elements by (graded) Leibniz and linearity.  A form
is a Vec over (b_label, basis name) keys: each basis name lives in exactly
one degree, so a form's degree is read from its names.  The cocycle twist
shares all basis tables (the bases are coinvariant); the deformation enters
through the twisted comodule algebra underneath and is re-verified by the
calculus suite, never assumed.
"""

from __future__ import annotations

from .cyclotomic import Cyc
from .modules import CentralBasisModule, TensorModule
from .relhopf import TwistedModule, phi_inv_map
from .vectors import Vec, gauss_solve, invert, memoize_tables


class Calculus:
    """(Omega^., wedge, d, *) over a comodule algebra, tables on basis forms."""

    def __init__(self, base, modules, wedge_table, d_base, d_table, star_table):
        self.base = base
        self.modules = modules              # degree -> FreeModule (0 has basis ["1"])
        self.wedge_table = wedge_table      # (name1, name2) -> Vec of Omega^{k+l}
        self.d_base = d_base                # B label -> Vec of Omega^1
        self.d_table = d_table              # form name -> Vec of Omega^{k+1}
        self.star_table = star_table        # form name -> Vec of Omega^k
        self.top = max(modules)
        self.scalar_order = base.scalar_order
        self._degree_of = {}
        for k, mod in modules.items():
            for i in mod.basis:
                if i in self._degree_of:
                    raise ValueError(
                        f"basis name {i!r} appears in degrees {self._degree_of[i]} and {k}")
                self._degree_of[i] = k
        memoize_tables(self, "basis_form")

    def module(self, k):
        return self.modules[k]

    def degree(self, form):
        """The degree of a homogeneous form, None for zero.

        Raises ValueError when the form's basis names span two degrees.
        """
        degrees = {self._degree_of[i] for _, i in form.terms}
        if len(degrees) > 1:
            raise ValueError(f"form spans degrees {sorted(degrees)}")
        return degrees.pop() if degrees else None

    def basis_form(self, name):
        return self.module(self._degree_of[name]).el(name)

    def from_b(self, b_vec):
        return self.module(0).from_b(b_vec, "1")

    # -- d, wedge, star on elements ----------------------------------------

    def d(self, form):
        """Exterior derivative, extended from the tables by Leibniz key by key."""
        return form.apply(self._d_term)

    def _d_term(self, bi):
        b, i = bi
        k = self._degree_of[i]
        if k >= self.top:
            return Vec(self.scalar_order)
        if k == 0:
            return self.d_base(b)
        # d(b w) = db ^ w + b dw
        return self.wedge(self.d_base(b), self.basis_form(i)) + \
            self.module(k + 1).lmul(self.base.el(b), self.d_table[i])

    def wedge(self, f1, f2):
        """Graded product through the right-action straightening."""
        k, l = self.degree(f1), self.degree(f2)
        if k is None or l is None or k + l > self.top:
            return Vec(self.scalar_order)
        B, out_mod = self.base, self.module(k + l)
        # a 0-form is b . 1, and (b . 1) ^ w = b w, w ^ (b . 1) = w b
        if k == 0:
            return out_mod.lmul(f1.map_keys(lambda bi: bi[0]), f2)
        if l == 0:
            return out_mod.rmul(f1, f2.map_keys(lambda bi: bi[0]))

        def term(x, y):
            # (b1 w_i1) ^ (b2 w_i2) = b1 (w_i1 . b2) ^ w_i2
            (b1, i1), (b2, i2) = x, y
            moved = self.module(k).lmul(B.el(b1), self.module(k).r_act(i1, b2))
            return moved.apply(lambda bi: out_mod.lmul(
                B.el(bi[0]), self.wedge_table.get((bi[1], i2), out_mod.zero())))

        return f1.apply2(f2, term)

    def star(self, form):
        """Antilinear involution: (b w)* = w* b* for degree-0 coefficients."""
        return form.apply_conj(lambda bi: self.module(self._degree_of[bi[1]]).rmul(
            self.star_table[bi[1]], self.base.star(bi[0])))


def twist_calculus(cal, data, twisted_base):
    """The deformed calculus: twisted modules, shared basis tables."""
    modules = {k: TwistedModule(m, data, twisted_base) for k, m in cal.modules.items()}
    return Calculus(twisted_base, modules, cal.wedge_table, cal.d_base,
                    cal.d_table, cal.star_table)


class ComplexStructure:
    """An N0^2 bigrading by basis forms, with projections and del/delbar."""

    def __init__(self, cal, bigrade):
        self.cal = cal
        self.bigrade = dict(bigrade)   # basis name -> (p, q)

    def proj(self, form, p, q):
        return Vec(self.cal.scalar_order, {
            k: c for k, c in form.terms.items() if self.bigrade.get(k[1]) == (p, q)})

    def components(self, form):
        grades = dict.fromkeys(self.bigrade[i] for _, i in form.terms)
        return {pq: self.proj(form, *pq) for pq in grades}

    def _d_part(self, form, dp, dq):
        # the (p+dp, q+dq)-part of d on each (p, q)-component
        out = Vec(self.cal.scalar_order)
        for (p, q), comp in self.components(form).items():
            out = out + self.proj(self.cal.d(comp), p + dp, q + dq)
        return out

    def del_(self, form):
        return self._d_part(form, 1, 0)

    def delbar(self, form):
        return self._d_part(form, 0, 1)

    def delbar_b(self, b_vec):
        return self.delbar(self.cal.from_b(b_vec))

    def submodule(self, p, q):
        basis = [i for i in self.cal.module(p + q).basis if self.bigrade[i] == (p, q)]
        return CentralBasisModule(self.cal.base, basis)

    def opposite(self):
        swapped = {i: (q, p) for i, (p, q) in self.bigrade.items()}
        return ComplexStructure(self.cal, swapped)


def coinvariant_matrix(cal, images, targets, error):
    """The scalar matrix (one row per target name, one column per image) of
    Vecs over (label, name) keys, read off at the unit of the base.

    Raises `error` when an image has a target coefficient at any other label.
    """
    unit = cal.base.unit().terms
    row_of = {t: r for r, t in enumerate(targets)}
    mat = [[Cyc.zero(cal.scalar_order) for _ in images] for _ in targets]
    for j, img in enumerate(images):
        for (b, t), c in img.terms.items():
            r = row_of.get(t)
            if r is not None:
                if b not in unit:
                    raise error
                mat[r][j] = mat[r][j] + c * unit[b]
    return mat


class NotFactorizable(ValueError):
    pass


def factorization_inverse(cs, left_grade=(0, 1), right_grade=(1, 0)):
    """Invert the wedge map O^{left} (x) O^{right} -> O^{(1,1)} exactly.

    Returns a function from Omega^{(1,1)} elements to tensor elements in
    TensorModule(sub_left, sub_right), plus the tensor module itself.
    Raises NotFactorizable when the exact solve is singular.
    """
    cal = cs.cal
    sub_l = cs.submodule(*left_grade)
    sub_r = cs.submodule(*right_grade)
    tens = TensorModule(sub_l, sub_r)
    target_names = [i for i in cal.module(2).basis if cs.bigrade[i] == (1, 1)]
    pair_names = tens.basis
    order = cal.scalar_order
    # the wedge images must be coinvariant (scalar) for the exact solve over Q(zeta)
    rows = coinvariant_matrix(
        cal, [cal.wedge(cal.basis_form(i), cal.basis_form(j)) for (i, j) in pair_names],
        target_names, NotFactorizable("wedge image has non-coinvariant coefficient"))
    columns = invert(rows)
    if columns is None:
        raise NotFactorizable(f"wedge map {left_grade}x{right_grade} -> (1,1) is singular")
    inv_table = {t: Vec(order, dict(zip(pair_names, sol))).apply(tens.el)
                 for t, sol in zip(target_names, columns)}

    def theta_term(bi):
        b, i = bi
        if cs.bigrade[i] != (1, 1):
            raise ValueError("factorization inverse expects a (1,1)-form")
        return tens.lmul(cal.base.el(b), inv_table[i])

    return lambda form: form.apply(theta_term), tens


class HoloModule:
    """A module with a delbar-connection of vanishing holomorphic curvature."""

    def __init__(self, cs, module, tensor_01, delbar_table):
        self.cs = cs
        self.module = module
        self.tensor_01 = tensor_01      # TensorModule(O^{(0,1)}-module, module)
        self.delbar_table = dict(delbar_table)   # basis -> tensor element

    def delbar_conn(self, elem):
        """delbar_E(b e) = b delbar_E(e) + delbar(b) (x) e."""
        cs, mod, tens = self.cs, self.module, self.tensor_01
        return elem.apply(lambda bi: tens.lmul(mod.base.el(bi[0]), self.delbar_table[bi[1]])
                          + tens.pure(cs.delbar_b(mod.base.el(bi[0])), mod.el(bi[1])))

    def operator(self, u):
        """(delbar (x) id - id ^ delbar_E) on a normal-form element of O^{(0,1)} (x) E."""
        cs, mod = self.cs, self.module

        def form(b, w):
            return Vec.single(mod.scalar_order, (b, w))

        def with_leg(vec, j):
            # a Vec over (b, w) keys, tensored with e_j
            return vec.map_keys(lambda bw: (bw[0], (bw[1], j)))

        def on_key(k):
            b, (w, j) = k
            # (id ^ delbar_E): wedge the form leg with delbar_E of the module leg
            wedged = self.delbar_conn(mod.el(j)).apply(lambda k2: with_leg(
                cs.cal.wedge(form(b, w), form(k2[0], k2[1][0])), k2[1][1]))
            # (delbar (x) id): delbar hits the form leg with its left coefficient
            return with_leg(cs.delbar(form(b, w)), j) - wedged

        return u.apply(on_key)

    def curvature(self, i):
        """R^Hol(e_i) = (delbar (x) id - id ^ delbar_E) delbar_E (e_i)."""
        return self.operator(self.delbar_table[i])


def holomorphic_from_factorizable(cs, grade=(1, 0)):
    """The canonical holomorphic structure delbar_E = theta . delbar on O^{grade}.

    grade (1,0) uses the given complex structure; grade (0,1) uses the
    opposite one (whose delbar is del), per the opposite-structure recipe.
    The returned HoloModule carries the view in whose terms it is holomorphic.
    """
    if grade == (1, 0):
        view = cs
        theta, tens = factorization_inverse(cs, (0, 1), (1, 0))
    elif grade == (0, 1):
        view = cs.opposite()
        theta, tens = factorization_inverse(cs, (1, 0), (0, 1))
    else:
        raise ValueError("holomorphic structures are built in degree one")
    mod = cs.submodule(*grade)
    tens2 = TensorModule(tens.left, mod)
    table = {i: theta(view.delbar(cs.cal.basis_form(i))) for i in mod.basis}
    return HoloModule(view, mod, tens2, table)


def twist_holomorphic(h, data, twisted_cs, twisted_base):
    """delbar on Gamma(E) is phi^-1 . Gamma(delbar_E), per-basis tables."""
    mod_tw = TwistedModule(h.module, data, twisted_base)
    left_tw = TwistedModule(h.tensor_01.left, data, twisted_base)
    tens_tw = TensorModule(left_tw, mod_tw)
    table = {
        i: phi_inv_map(data, tens_tw, h.tensor_01, v)
        for i, v in h.delbar_table.items()
    }
    return HoloModule(twisted_cs, mod_tw, tens_tw, table)


def lefschetz_bijective(cal, kappa, k=0):
    """Whether L^{n-k} = (kappa ^ .)^{n-k}: Omega^k -> Omega^{2n-k} is bijective
    over scalars, for the Kahler form kappa of a calculus of top degree 2n."""
    n = cal.top // 2
    src = cal.module(k)
    images = []
    for i in src.basis:
        img = src.el(i)
        for _ in range(n - k):
            img = cal.wedge(kappa, img)
        images.append(img)
    mat = coinvariant_matrix(cal, images, cal.module(2 * n - k).basis,
                             ValueError("Lefschetz image not coinvariant"))
    zero = Cyc.zero(cal.scalar_order)
    return len(mat) == len(src.basis) and not gauss_solve(mat, [zero] * len(mat))[1]


def fundamental_form(cal, pairing_table, complex_op):
    """kappa = sum_i Iinv(Vinv(f_i)) ^ f^i for the classical recipe.

    pairing_table maps basis-name pairs to scalars ((w_i, w_j)); complex_op
    maps basis names to Omega^1 elements (the almost complex structure I).
    V(eta)(xi) = (xi, eta), so Vinv(f_i) is the solve of (., eta) = dual_i.
    """
    names = cal.module(1).basis
    order = cal.scalar_order
    columns = invert([[pairing_table[(r, c)] for c in names] for r in names])
    if columns is None:
        raise ValueError("pairing is degenerate; no fundamental form")
    kappa = Vec(order)
    for f_i, sol in zip(names, columns):
        # Vinv(f_i) = sum_j sol[j] w_j; apply I^{-1} = -I (I^2 = -id)
        i_inv = Vec(order, dict(zip(names, sol))).apply(complex_op).scale(-1)
        kappa = kappa + cal.wedge(i_inv, cal.basis_form(f_i))
    return kappa
