"""Metrics, connections, Hermitian metrics, Chern solver, and their twists.

The Chern connection is produced by an exact linear solve: the (0,1)-part
is pinned to the holomorphic structure, the unknown (1,0)-part is expanded
over a declared coefficient box around the coinvariant span, and the
compatibility equation

    d< , > = (id (x) < , >)(nabla (x) id) + (< , > (x) id)(id (x) conj-nabla)

is imposed on all basis pairs.  The conjugate right connection makes the
equation antilinear in half the unknowns, so the solve runs over Q(zeta_N)
with conj(z) as unknowns of their own beside z (`solve_antilinear`).  A
nontrivial kernel or an inconsistent system is reported as such: the solver
doubles as the uniqueness witness.
"""

from __future__ import annotations

from .calculus import coinvariant_matrix
from .cyclotomic import Cyc
from .modules import ConjugateModule, HomModule, Morphism, TensorModule, hom_apply, unconj
from .relhopf import (
    TwistedModule, conj_twist_iso, hom_twist_iso, phi_inv_map, phi_map, twist_tensor_morphism,
    untwisted_of)
from .vectors import Vec, gauss_solve, solve_antilinear


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
        zero = B.zero()
        # (b w_i (x) w_j) -> b (w_i, w_j)
        return tensor_elem.apply(lambda k: self.pairing_table.get(k[1], zero).apply(
            lambda b2: B.mult(k[0], b2)))

    def pair(self, x, y):
        return self.pair_apply(self.tensor.pure(x, y))

    def snake_left(self, name):
        """((w, ) (x) id) g, which must reproduce the basis form w."""
        mod = self.module

        def term(t):
            b, (j, k) = t
            return mod.lmul(self.pair(mod.el(name), mod.from_b(self.cal.base.el(b), j)), mod.el(k))

        return self.g.apply(term)

    def snake_right(self, name):
        """(id (x) ( , w)) g."""
        mod = self.module

        def term(t):
            b, (j, k) = t
            return mod.rmul(mod.from_b(self.cal.base.el(b), j), self.pair(mod.el(k), mod.el(name)))

        return self.g.apply(term)

    def dagger(self, tensor_elem):
        """flip(* (x) *) on a normal-form element of O1 (x) O1."""
        cal = self.cal

        def term(t):
            b, (i, j) = t
            ystar = cal.star(self.module.el(j))
            xstar = cal.star(self.module.from_b(cal.base.el(b), i))
            return self.tensor.pure(ystar, xstar)

        return tensor_elem.apply_conj(term)


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

        def term(bi):
            b, i = bi
            db = cal.d(cal.from_b(cal.base.el(b)))
            return tens.lmul(cal.base.el(b), self.table[i]) + tens.pure(db, mod.el(i))

        return elem.apply(term)

    def torsion(self, elem):
        """wedge . nabla - d on one-forms (module = O1)."""
        cal = self.cal
        # (b w_i (x) w_j) -> b w_i ^ w_j
        wedged = self.apply(elem).apply(lambda k: cal.wedge(
            Vec.single(cal.scalar_order, (k[0], k[1][0])), cal.module(1).el(k[1][1])))
        return wedged - cal.d(elem)

    def tensor_connection(self, other, elem, tensor_mod):
        """nabla_{E (x) F} = nabla_E (x) id + (sigma_E (x) id)(id (x) nabla_F)."""
        cal = self.cal
        E = tensor_mod.left
        O1 = cal.module(1)
        target = TensorModule(O1, tensor_mod)
        src = self.sigma.src

        def with_leg(v, j):
            # a Vec over (b, (w, i)) keys, tensored with f_j
            return v.map_keys(lambda k: (k[0], (k[1][0], (k[1][1], j))))

        def through_sigma(i, y):
            # (sigma (x) id)(e_i (x) b3 w3 (x) f_j3), with e_i b3 = b4 e_i4
            b3, (w3, j3) = y
            moved = E.r_act(i, b3).apply(
                lambda bi: self.sigma(src.lmul(cal.base.el(bi[0]), src.el((bi[1], w3)))))
            return with_leg(moved, j3)

        def term(t):
            # b nabla_T(e_i (x) f_j) + db (x) (e_i (x) f_j)
            b, (i, j) = t
            part = with_leg(self.table[i], j) + \
                other.table[j].apply(lambda y: through_sigma(i, y))
            db = cal.d(cal.from_b(cal.base.el(b)))
            return target.lmul(cal.base.el(b), part) + target.pure(db, tensor_mod.el((i, j)))

        return elem.apply(term)

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

    def conj_term(k):
        # b w (x) e_t  ->  (e_t)bar (x) (b w)*
        b, (w, t) = k
        starred = cal.star(Vec.single(cal.scalar_order, (b, w)))
        return tens.pure(ebar.el(("bar", t)), starred)

    def apply(elem):
        return elem.apply(lambda key: conn.apply(
            unconj(mod, Vec.single(cal.scalar_order, key))).apply_conj(conj_term))

    return ebar, tens, apply


# -- Hermitian metrics ---------------------------------------------------------


class HermitianData:
    """H: Ebar -> Hom_B(E,B) with its sesquilinear pairing < , >."""

    def __init__(self, cal, module, table):
        self.cal = cal
        self.module = module
        self.ebar = ConjugateModule(module)
        self.hom = HomModule(module)
        self.morphism = Morphism(self.ebar, self.hom, table)
        # the morphism's own table: an edit to it is an edit to H
        self.table = self.morphism.table    # ('bar', i) -> Vec over HomModule keys

    def pair(self, x, ybar):
        """<x, ybar> = ev(x (x) H(ybar))."""
        return hom_apply(self.hom, self.morphism(ybar), x)

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
        starred = cal.star(mod.el(i))
        f = hom.zero()
        for j in mod.basis:
            val = metric.pair_apply(metric.tensor.pure(mod.el(j), starred))
            f = f + hom.from_b(val, ("dual", j))
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
            off = [dk[1] for (_, dk), c in val.terms.items()
                   if dk[1] not in keep and not c.is_zero()]
            if off:
                raise DiamondViolation(f"H(bar {i}) has an off-block value at dual({off[0]})")
            table[("bar", i)] = Vec(cal.scalar_order, {
                k: c for k, c in val.terms.items() if k[1][1] in keep})
        out.append(HermitianData(cal, sub, table))
    return tuple(out)


def twist_hermitian(herm, data, cal_tw):
    """H_g = hom_twist_iso . Gamma(H) . conj_twist_iso, reassembled as a basis table."""
    GE = cal_tw.module(1) if herm.module is untwisted_of(cal_tw.module(1)) \
        else TwistedModule(herm.module, data, cal_tw.base)
    bar_GE = ConjugateModule(GE)
    hom_tw = HomModule(GE)
    table = {}
    for i in GE.basis:
        xbar = bar_GE.el(("bar", i))
        moved = conj_twist_iso(data, GE, xbar)
        # Gamma(H): the same table applied to the keys read untwisted
        hval = herm.morphism(moved)
        ev = hom_twist_iso(data, herm.hom, hval)
        f = hom_tw.zero()
        for j in GE.basis:
            f = f + hom_tw.from_b(ev(GE.el(j)), ("dual", j))
        table[("bar", i)] = f
    return HermitianData(cal_tw, GE, table)


# -- the Chern solver ----------------------------------------------------------


class ChernNoSolution(ValueError):
    pass


class ChernNotUnique(ValueError):
    pass


def _compat_terms(cal, herm, conn_table, i, jbar):
    """RHS of the compatibility equation at the basis pair (e_i, bar e_j).

    Returns (linear_part, antilinear_part): contributions of the table as
    given; the caller assembles  d<,> - linear(F+P) - antilinear(F+P) = 0.
    """
    mod = herm.module
    O1 = cal.module(1)

    def lin_term(k):
        # (id (x) < , >)(nabla e_i (x) bar e_j)
        b, (w, t) = k
        val = herm.pair(mod.el(t), herm.ebar.el(("bar", jbar)))
        return O1.rmul(O1.from_b(cal.base.el(b), w), val)

    def anti_term(k):
        # (< , > (x) id)(e_i (x) tilde-nabla bar e_j)
        b, (w, t) = k
        starred = cal.star(Vec.single(cal.scalar_order, (b, w)))
        val = herm.pair(mod.el(i), herm.ebar.el(("bar", t)))
        return O1.lmul(val, starred)

    return conn_table[i].apply(lin_term), conn_table[jbar].apply_conj(anti_term)


def chern_solve(holo, herm, coeff_box=1):
    """Solve for the unique covariant connection fixed by (delbar_E, H).

    The unknown view-(1,0)-part is expanded over monomial coefficients z in
    the declared box times the (1,0) (x) E basis.  Compatibility with H on
    every basis pair gives one row per key of its value: linear in z through
    nabla, antilinear through the conjugate connection, solved exactly over
    Q(zeta_N) by `solve_antilinear`.  ChernNotUnique counts the kernel over
    the real subfield; the ChernNoSolution witness indexes those rows.
    """
    cs = holo.cs                    # the view in whose terms E is holomorphic
    cal = cs.cal
    mod = holo.module
    B = cal.base
    order = cal.scalar_order

    # fixed part: the delbar table, whose keys are already those of O1 (x) E
    fixed = holo.delbar_table

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

    # residual(z) per (i,j): d<,> - lin(fixed) - anti(fixed)
    #                        - sum_k z_k lin_k - sum_k conj(z_k) anti_k
    zero = Cyc.zero(order)
    lin, anti, rhs = [], [], []
    for i in mod.basis:
        for j in mod.basis:
            lhs_b = herm.pair(mod.el(i), herm.ebar.el(("bar", j)))
            lin0, anti0 = _compat_terms(cal, herm, fixed, i, j)
            const = cal.d(cal.from_b(lhs_b)) - lin0 - anti0
            parts = [_compat_terms(cal, herm, cand, i, j) for cand in candidates]
            keys = set(const.terms)
            for link, antik in parts:
                keys |= link.terms.keys() | antik.terms.keys()
            for key in sorted(keys, key=str):
                lin.append([link.terms.get(key, zero) for link, _ in parts])
                anti.append([antik.terms.get(key, zero) for _, antik in parts])
                rhs.append(const.terms.get(key, zero))
    if not rhs:
        # no key at all: one zero row keeps the width of the system
        lin, anti, rhs = [[zero] * len(candidates)], [[zero] * len(candidates)], [zero]

    sol, kernel_dim, bad = solve_antilinear(lin, anti, rhs)
    if sol is None:
        raise ChernNoSolution(
            f"no Chern connection in search space (witness row {bad})")
    if kernel_dim:
        raise ChernNotUnique(
            f"uniqueness violated in search space (kernel dim {kernel_dim})")

    table = {i: fixed[i].copy() for i in mod.basis}
    for z, cand in zip(sol, candidates):
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
        proj = Vec(cal.scalar_order, {
            k: c for k, c in conn.table[i].terms.items() if cs.bigrade[k[1][0]] == (0, 1)})
        if proj != holo.delbar_table[i]:
            return False, f"(0,1)-part differs at basis {i}"
    for i in mod.basis:
        for j in mod.basis:
            lhs = cal.d(cal.from_b(herm.pair(mod.el(i), herm.ebar.el(("bar", j)))))
            lin, anti = _compat_terms(cal, herm, conn.table, i, j)
            if not (lhs - lin - anti).is_zero():
                return False, f"compatibility fails at pair ({i},{j})"
    return True, None
