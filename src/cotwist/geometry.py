"""Metrics, connections, Hermitian metrics, Chern solver, and their twists.

The Chern connection is produced by an exact linear solve: the (0,1)-part
is pinned to the holomorphic structure, the unknown (1,0)-part is expanded
over a declared coefficient box around the coinvariant span, and the
compatibility equation

    d< , > = (id (x) < , >)(nabla (x) id) + (< , > (x) id)(id (x) conj-nabla)

is imposed on all basis pairs.  The conjugate right connection makes the
equation antilinear in half the unknowns, so the solve runs over Q on the
canonical cyclotomic coordinates, where conjugation is Q-linear.  A
nontrivial kernel or an inconsistent system is reported as such: the solver
doubles as the uniqueness witness.
"""

from __future__ import annotations

from fractions import Fraction

from .calculus import Form, coinvariant_matrix
from .cyclotomic import Cyc, _phi
from .modules import ConjugateModule, HomModule, Morphism, TensorModule, hom_apply, unconj
from .relhopf import (
    TwistedModule, conj_twist_iso, hom_twist_iso, phi_inv_map, phi_map, twist_tensor_morphism,
    untwisted_of)
from .vectors import Vec, gauss_solve


# -- metrics -----------------------------------------------------------------


class MetricData:
    """(g, ( , )) on the one-forms: g in O1 (x) O1 plus a basis pairing table."""

    def __init__(self, cal, g, pairing_table):
        self.cal = cal
        self.module = cal.module(1)
        self.tensor = TensorModule(self.module, self.module)
        self.g = g
        self.pairing_table = dict(pairing_table)   # (name,name) -> Vec over B labels

    def pair_apply(self, tensor_elem):
        """( , ) extended to a normal-form element of O1 (x) O1."""
        B = self.cal.base
        out = Vec(self.cal.scalar_order)
        for (b, (i, j)), c in tensor_elem.terms.items():
            val = self.pairing_table.get((i, j))
            if val is None:
                continue
            for b2, c2 in val.terms.items():
                for b3, c3 in B.mult(b, b2).terms.items():
                    out.add_term(b3, c * c2 * c3)
        return out

    def pair(self, x, y):
        return self.pair_apply(self.tensor.pure(x, y))

    def snake_left(self, name):
        """((w, ) (x) id) g, which must reproduce the basis form w."""
        out = Vec(self.cal.scalar_order)
        for (b, (j, k)), c in self.g.terms.items():
            val = self.pair(self.module.el(name), self.module.from_b(self.cal.base.el(b), j))
            piece = self.module.lmul(val, self.module.el(k))
            out = out + piece.scale(c)
        return out

    def snake_right(self, name):
        """(id (x) ( , w)) g."""
        out = Vec(self.cal.scalar_order)
        for (b, (j, k)), c in self.g.terms.items():
            val = self.pair(self.module.el(k), self.module.el(name))
            piece = self.module.rmul(self.module.from_b(self.cal.base.el(b), j), val)
            out = out + piece.scale(c)
        return out

    def dagger(self, tensor_elem):
        """flip(* (x) *) on a normal-form element of O1 (x) O1."""
        cal = self.cal
        out = Vec(cal.scalar_order)
        for (b, (i, j)), c in tensor_elem.terms.items():
            ystar = cal.star(Form(1, self.module.el(j)))
            xstar = cal.star(Form(1, self.module.from_b(cal.base.el(b), i)))
            piece = self.tensor.pure(ystar.vec, xstar.vec)
            out = out + piece.scale(c.conj())
        return out

    def is_real(self):
        return self.dagger(self.g) == self.g


def twist_metric(metric, data, cal_tw):
    """( , )_g = Gamma(( , )) . phi and g_g = phi^-1(g)."""
    mod_tw = cal_tw.module(1)
    tens_tw = TensorModule(mod_tw, mod_tw)
    tens_unt = metric.tensor
    g_tw = phi_inv_map(data, tens_tw, tens_unt, metric.g)
    pairing_tw = {}
    for (i, j) in tens_tw.basis:
        moved = phi_map(data, tens_tw, tens_unt, tens_tw.el((i, j)))
        pairing_tw[(i, j)] = metric.pair_apply(moved)
    return MetricData(cal_tw, g_tw, pairing_tw)


# -- connections --------------------------------------------------------------


class ConnectionData:
    """A left (bimodule) connection on a free module, values in O1 (x) E."""

    def __init__(self, cal, module, table, sigma=None):
        self.cal = cal
        self.module = module
        self.table = dict(table)          # basis -> Vec over TensorModule(O1, E)
        self.sigma = sigma                # Morphism T(E,O1) -> T(O1,E) or None
        self.tensor = TensorModule(cal.module(1), module)

    def apply(self, elem):
        """nabla(b e) = b nabla(e) + db (x) e."""
        cal, mod, tens = self.cal, self.module, self.tensor
        out = Vec(cal.scalar_order)
        for (b, i), c in elem.terms.items():
            piece = tens.lmul(cal.base.el(b), self.table[i])
            out = out + piece.scale(c)
            db = cal.d(cal.from_b(cal.base.el(b)))
            out = out + tens.pure(db.vec, mod.el(i)).scale(c)
        return out

    def torsion(self, elem):
        """wedge . nabla - d on one-forms (module = O1)."""
        cal = self.cal
        img = self.apply(elem)
        out = cal.zero_form(2)
        for (b, (i, j)), c in img.terms.items():
            w = cal.wedge(Form(1, Vec.single(cal.scalar_order, (b, i), c)),
                          Form(1, cal.module(1).el(j)))
            out = out + w
        return out - cal.d(Form(1, elem))

    def tensor_connection(self, other, elem, tensor_mod):
        """nabla_{E (x) F} = nabla_E (x) id + (sigma_E (x) id)(id (x) nabla_F)."""
        cal = self.cal
        E = tensor_mod.left
        O1 = cal.module(1)
        target = TensorModule(O1, tensor_mod)
        out = Vec(cal.scalar_order)
        for (b, (i, j)), c in elem.terms.items():
            # b nabla_T(e_i (x) f_j) + db (x) (e_i (x) f_j)
            part = Vec(cal.scalar_order)
            for (b2, (w, i2)), c2 in self.table[i].terms.items():
                part.add_term((b2, (w, (i2, j))), c2)
            for (b3, (w3, j3)), c3 in other.table[j].terms.items():
                # (sigma (x) id)(e_i (x) b3 w3 (x) f_j3)
                moved = E.r_act(i, b3)
                for (b4, i4), c4 in moved.terms.items():
                    sig = self.sigma(self.sigma.src.lmul(
                        cal.base.el(b4), self.sigma.src.el((i4, w3))))
                    for (b5, (w5, i5)), c5 in sig.terms.items():
                        part.add_term((b5, (w5, (i5, j3))), c3 * c4 * c5)
            out = out + target.lmul(cal.base.el(b), part).scale(c)
            db = cal.d(cal.from_b(cal.base.el(b)))
            out = out + target.pure(db.vec, tensor_mod.el((i, j))).scale(c)
        return out

    def metric_compat(self, metric):
        """nabla_{O1 (x) O1} g, which vanishes iff the metric is covariantly constant."""
        return self.tensor_connection(self, metric.g, metric.tensor)


def twist_connection(conn, data, cal_tw, module_tw=None):
    """nabla_{Gamma(E)} = phi^-1 . Gamma(nabla_E), sigma twisted alongside."""
    mod_tw = module_tw if module_tw is not None else cal_tw.module(1)
    tens_tw = TensorModule(cal_tw.module(1), mod_tw)
    table = {
        i: phi_inv_map(data, tens_tw, conn.tensor, v) for i, v in conn.table.items()
    }
    sigma_tw = None
    if conn.sigma is not None:
        src_tw = TensorModule(mod_tw, cal_tw.module(1))
        sigma_tw = twist_tensor_morphism(conn.sigma, data, src_tw, tens_tw)
    return ConnectionData(cal_tw, mod_tw, table, sigma_tw)


def conj_connection(conn):
    """The right connection on Ebar: (e_i)bar -> sum (e_t)bar (x) (b w)*."""
    cal, mod = conn.cal, conn.module
    ebar = ConjugateModule(mod)
    tens = TensorModule(ebar, cal.module(1))

    def apply(elem):
        out = Vec(cal.scalar_order)
        for key, c in elem.terms.items():
            m = unconj(ebar, Vec.single(cal.scalar_order, key, 1))
            img = conn.apply(m)
            for (b, (w, t)), c2 in img.terms.items():
                starred = cal.star(Form(1, Vec.single(cal.scalar_order, (b, w), c2)))
                piece = tens.pure(ebar.el(("bar", t)), starred.vec)
                out = out + piece.scale(c)
        return out

    return ebar, tens, apply


# -- Hermitian metrics ---------------------------------------------------------


class HermitianData:
    """H: Ebar -> Hom_B(E,B) with its sesquilinear pairing < , >."""

    def __init__(self, cal, module, table):
        self.cal = cal
        self.module = module
        self.ebar = ConjugateModule(module)
        self.hom = HomModule(module)
        self.table = dict(table)    # ('bar', i) -> Vec over HomModule keys
        self.morphism = Morphism(self.ebar, self.hom, self.table, "H")

    def H(self, ebar_elem):
        return self.morphism(ebar_elem)

    def pair(self, x, ybar):
        """<x, ybar> = ev(x (x) H(ybar))."""
        return hom_apply(self.hom, self.H(ybar), x)

    def scalar_matrix(self):
        """The matrix of H over scalars; raises if entries are not coinvariant."""
        names = self.module.basis
        return coinvariant_matrix(self.cal, [self.table[("bar", i)] for i in names],
                                  [("dual", n) for n in names],
                                  ValueError("Hermitian table entry is not coinvariant"))

    def is_invertible(self):
        mat = self.scalar_matrix()
        return not gauss_solve(mat, [Cyc.zero(self.cal.scalar_order)] * len(mat))[1]


def hermitian_from_real(metric):
    """H_g(wbar)(eta) = (eta, w*): the metric-to-Hermitian correspondence."""
    cal = metric.cal
    mod = metric.module
    hom = HomModule(mod)
    table = {}
    for i in mod.basis:
        starred = cal.star(Form(1, mod.el(i)))
        f = Vec(cal.scalar_order)
        for j in mod.basis:
            val = metric.pair_apply(metric.tensor.pure(mod.el(j), starred.vec))
            for (b2, dk), c2 in hom.from_b(val, ("dual", j)).terms.items():
                f.add_term((b2, dk), c2)
        table[("bar", i)] = f
    return HermitianData(cal, mod, table)


class DiamondViolation(ValueError):
    pass


def split_hermitian(herm, cs):
    """H = H1 (+) H2 along the bigrade; refuses when off-blocks are nonzero."""
    cal = herm.cal
    out = []
    for grade in ((1, 0), (0, 1)):
        sub = cs.submodule(*grade)
        keep = set(sub.basis)
        table = {}
        for i in sub.basis:
            val = herm.table[("bar", i)]
            restricted = Vec(cal.scalar_order)
            for (b, dk), c in val.terms.items():
                j = dk[1]
                if j in keep:
                    restricted.add_term((b, dk), c)
                elif not c.is_zero():
                    raise DiamondViolation(
                        f"H(bar {i}) has an off-block value at dual({j})")
            table[("bar", i)] = restricted
        out.append(HermitianData(cal, sub, table))
    return tuple(out)


def twist_hermitian(herm, data, cal_tw, module_tw=None):
    """H_g = hom_twist_iso . Gamma(H) . conj_twist_iso, reassembled as a basis table."""
    if module_tw is None:
        module_tw = cal_tw.module(1) if herm.module is untwisted_of(cal_tw.module(1)) \
            else TwistedModule(herm.module, data, cal_tw.base)
    GE = module_tw
    bar_GE = ConjugateModule(GE)
    hom_tw = HomModule(GE)
    table = {}
    for i in GE.basis:
        xbar = bar_GE.el(("bar", i))
        moved = conj_twist_iso(data, GE, xbar)
        # Gamma(H): the same table applied to the keys read untwisted
        hval = herm.morphism(moved)
        ev = hom_twist_iso(data, herm.hom, hval)
        f = Vec(cal_tw.scalar_order)
        for j in GE.basis:
            val = ev(GE.el(j))
            for (b2, dk), c2 in hom_tw.from_b(val, ("dual", j)).terms.items():
                f.add_term((b2, dk), c2)
        table[("bar", i)] = f
    return HermitianData(cal_tw, GE, table)


# -- the Chern solver ----------------------------------------------------------


class ChernNoSolution(ValueError):
    pass


class ChernNotUnique(ValueError):
    def __init__(self, message, kernel_dim):
        super().__init__(message)
        self.kernel_dim = kernel_dim


def _compat_terms(cal, herm, conn_table, i, jbar):
    """RHS of the compatibility equation at the basis pair (e_i, bar e_j).

    Returns (linear_part, antilinear_part): contributions of the table as
    given; the caller assembles  d<,> - linear(F+P) - antilinear(F+P) = 0.
    """
    mod = herm.module
    O1 = cal.module(1)
    lin = Vec(cal.scalar_order)
    anti = Vec(cal.scalar_order)
    # (id (x) < , >)(nabla e_i (x) bar e_j)
    for (b, (w, t)), c in conn_table[i].terms.items():
        val = herm.pair(mod.el(t), herm.ebar.el(("bar", jbar)))
        piece = O1.rmul(O1.from_b(cal.base.el(b), w), val)
        lin = lin + piece.scale(c)
    # (< , > (x) id)(e_i (x) tilde-nabla bar e_j)
    for (b, (w, t)), c in conn_table[jbar].terms.items():
        starred = cal.star(Form(1, Vec.single(cal.scalar_order, (b, w), Cyc.one(cal.scalar_order))))
        val = herm.pair(mod.el(i), herm.ebar.el(("bar", t)))
        piece = O1.lmul(val, starred.vec)
        anti = anti + piece.scale(c.conj())
    return lin, anti


def cyc_to_coords(c, order):
    """Canonical rational coordinates of c in the power basis of Q(zeta_order)."""
    out = [Fraction(0)] * _phi(order)
    can, den = c.embed(order).canonical()
    for k, v in can:
        out[k] = Fraction(v, den)
    return out


def chern_solve(holo, herm, coeff_box=1):
    """Solve for the unique covariant connection fixed by (delbar_E, H).

    The unknown view-(1,0)-part is expanded over monomial coefficients in
    the declared box times the (1,0) (x) E basis; the exact rational system
    encodes compatibility with H on every basis pair.
    """
    cs = holo.cs                    # the view in whose terms E is holomorphic
    cal = cs.cal
    mod = holo.module
    B = cal.base
    order = cal.scalar_order

    # fixed part: the delbar table injected into O1 (x) E
    fixed = {}
    for i in mod.basis:
        v = Vec(order)
        for (b, (w, t)), c in holo.delbar_table[i].terms.items():
            v.add_term((b, (w, t)), c)
        fixed[i] = v

    # candidate basis for the unknown part
    sub10 = cs.submodule(1, 0)
    box_labels = _coefficient_box(B, coeff_box)
    candidates = []
    for i in mod.basis:
        for m in box_labels:
            for w in sub10.basis:
                for t in mod.basis:
                    cand = {k: Vec(order) for k in mod.basis}
                    cand[i] = Vec.single(order, (m, (w, t)), 1)
                    candidates.append(cand)

    deg = _phi(order)

    # residual(z) per (i,j): d<,> - lin(fixed) - anti(fixed)
    #                        - sum_k z_k lin_k - sum_k conj(z_k) anti_k
    rows_by_key = {}
    const_by_key = {}

    def key_rows(pair, key):
        return rows_by_key.setdefault((pair, key), [
            [Fraction(0)] * (len(candidates) * deg) for _ in range(deg)])

    pairs = [(i, j) for i in mod.basis for j in mod.basis]
    for (i, j) in pairs:
        lhs_b = herm.pair(mod.el(i), herm.ebar.el(("bar", j)))
        lhs = cal.d(cal.from_b(lhs_b)).vec
        lin0, anti0 = _compat_terms(cal, herm, fixed, i, j)
        const = lhs - lin0 - anti0
        for key, c in const.pruned().terms.items():
            coords = cyc_to_coords(c, order)
            cur = const_by_key.setdefault(((i, j), key), [Fraction(0)] * deg)
            for r in range(deg):
                cur[r] += coords[r]
        for k, cand in enumerate(candidates):
            link, antik = _compat_terms(cal, herm, cand, i, j)
            # antilinear in z_k, so the unknowns are the rational coordinates
            # of z_k = sum_s q_{k,s} zeta^s: q_{k,s} has coefficient zeta^s * c
            # in lin_k and conj(zeta^s) * c = zeta^-s * c in anti_k
            for part, sign in ((link, 1), (antik, -1)):
                for key, c in part.pruned().terms.items():
                    rows = key_rows((i, j), key)
                    for s in range(deg):
                        shifted = cyc_to_coords(Cyc.root(order, sign * s) * c, order)
                        for r in range(deg):
                            rows[r][k * deg + s] += shifted[r]

    all_keys = sorted(set(rows_by_key) | set(const_by_key),
                      key=lambda pk: (str(pk[0]), str(pk[1])))
    rows, rhs = [], []
    for pk in all_keys:
        mat = rows_by_key.get(pk)
        con = const_by_key.get(pk, [Fraction(0)] * deg)
        for r in range(deg):
            row = mat[r] if mat is not None else [Fraction(0)] * (len(candidates) * deg)
            rows.append(list(row))
            rhs.append(con[r])
    if not rows:
        rows = [[Fraction(0)] * (len(candidates) * deg)]
        rhs = [Fraction(0)]

    sol, kernel, bad = gauss_solve(rows, rhs)
    if sol is None:
        raise ChernNoSolution(
            f"no Chern connection in search space (witness row {bad})")
    if kernel:
        raise ChernNotUnique(
            f"uniqueness violated in search space (kernel dim {len(kernel)})",
            len(kernel))

    table = {i: fixed[i].copy() for i in mod.basis}
    for k, cand in enumerate(candidates):
        z = Cyc(order, dict(enumerate(sol[k * deg:(k + 1) * deg])))
        if z.is_zero():
            continue
        for i in mod.basis:
            piece = cand[i].scale(z)
            table[i] = table[i] + piece
    return ConnectionData(cal, mod, {i: v.pruned() for i, v in table.items()})


def _coefficient_box(B, box):
    hopf = B.hopf
    fin = hopf.finite_labels()
    if fin is not None:
        return fin if box else [next(iter(hopf.unit().terms))]
    return hopf.labels_box(box)


def chern_conditions_hold(holo, herm, conn):
    """Check (pi^{0,1} (x) id) nabla = delbar_E and H-compatibility, exactly."""
    cs = holo.cs
    cal = cs.cal
    mod = holo.module
    for i in mod.basis:
        proj = Vec(cal.scalar_order)
        for (b, (w, t)), c in conn.table[i].terms.items():
            if cs.bigrade[w] == (0, 1):
                proj.add_term((b, (w, t)), c)
        want = Vec(cal.scalar_order)
        for key, c in holo.delbar_table[i].terms.items():
            want.add_term(key, c)
        if proj != want:
            return False, f"(0,1)-part differs at basis {i}"
    for i in mod.basis:
        for j in mod.basis:
            lhs = cal.d(cal.from_b(herm.pair(mod.el(i), herm.ebar.el(("bar", j))))).vec
            lin, anti = _compat_terms(cal, herm, conn.table, i, j)
            if not (lhs - lin - anti).is_zero():
                return False, f"compatibility fails at pair ({i},{j})"
    return True, None
