"""Canned, fully verified model bundles instantiating every theorem at desk scale.

The flat 2-torus carries the whole geometric stack: its calculus is
presented on the bigrade-homogeneous central basis

    w+ = w1 + i w2,   w- = w1 - i w2,   vol = w+ ^ w-,

with w1 = x^-1 dx, w2 = y^-1 dy, so that d(x^m y^n) lands in exact
coefficients (m -+ i n)/2 and all structure constants live in Q(zeta_N)
with 4 | N.  The finite instruments (bicharacter lattice algebras, function
algebras of finite groups) cover the identity suites that need exhaustive
or non-grouplike Sweedler paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .calculus import (
    Calculus, ComplexStructure, Form, KahlerData, fundamental_form,
    holomorphic_from_factorizable, twist_calculus, twist_complex_structure,
    twist_holomorphic)
from .cocycle import (
    CocycleData, bicharacter_cocycle, theta_cocycle, trivial_cocycle, twist_hopf)
from .cyclotomic import Cyc
from .geometry import (
    ConnectionData, HermitianData, MetricData, chern_solve, hermitian_from_real,
    split_hermitian, twist_connection, twist_hermitian, twist_metric)
from .hopf import GroupAlgebra, fun_s3
from .modules import CentralBasisModule, Morphism, SelfComodule, TensorModule
from .relhopf import twist_comodule_algebra
from .vectors import Vec


def check_sampling(box, samples):
    """Reject a negative label box or sample count."""
    if box < 0:
        raise ValueError(f"box must be >= 0, got {box}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")


@dataclass
class ModelBundle:
    name: str
    hopf: object
    comodule: object
    data: CocycleData = None
    calculus: Calculus = None
    complex_structure: ComplexStructure = None
    metric: MetricData = None
    connection: ConnectionData = None
    hermitian: HermitianData = None
    hermitian_splits: tuple = None
    kahler: KahlerData = None
    holo_10: object = None
    holo_01: object = None
    box: int = 4
    samples: int = 100
    seed: int = 42
    twisted_hopf: object = None
    twisted_comodule: object = None
    parent: object = None

    def __post_init__(self):
        check_sampling(self.box, self.samples)

    def is_geometric(self):
        return self.calculus is not None


def _half(order):
    return Cyc.rational(Fraction(1, 2), order)


def build_torus_geometry(B, order):
    """Calculus, complex structure, metric, LC connection, Hermitian data."""
    i_unit = Cyc.i(order)
    O0 = CentralBasisModule(B, ["1"], name="O0")
    O1 = CentralBasisModule(B, ["w+", "w-"], name="O1")
    O2 = CentralBasisModule(B, ["vol"], name="O2")
    modules = {0: O0, 1: O1, 2: O2}

    zero2 = Vec(order)
    wedge_table = {
        ("w+", "w+"): zero2,
        ("w-", "w-"): zero2,
        ("w+", "w-"): O2.el("vol"),
        ("w-", "w+"): O2.el("vol").scale(-1),
    }

    def d_base(label):
        # d(x^m y^n) = x^m y^n ((m - i n)/2 w+ + (m + i n)/2 w-)
        m, n = label
        out = Vec(order)
        cp = (Cyc.rational(m, order) - i_unit * n) * _half(order)
        cm = (Cyc.rational(m, order) + i_unit * n) * _half(order)
        if not cp.is_zero():
            out.add_term((label, "w+"), cp)
        if not cm.is_zero():
            out.add_term((label, "w-"), cm)
        return out

    d_table = {
        "1": Vec(order),
        "w+": Vec(order), "w-": Vec(order),
        "vol": Vec(order),
    }
    # w1* = -w1, w2* = -w2  =>  (w+)* = -w-, (w-)* = -w+, vol* = -vol
    star_table = {
        "1": O0.el("1"),
        "w+": O1.el("w-").scale(-1),
        "w-": O1.el("w+").scale(-1),
        "vol": O2.el("vol").scale(-1),
    }
    cal = Calculus(B, modules, wedge_table, d_base, d_table, star_table, top=2)
    cs = ComplexStructure(cal, {"1": (0, 0), "w+": (1, 0), "w-": (0, 1), "vol": (1, 1)})

    # metric: g = w1 (x) w1 + w2 (x) w2 = 1/2 (w+ (x) w- + w- (x) w+)
    T11 = TensorModule(O1, O1)
    g = (T11.el(("w+", "w-")) + T11.el(("w-", "w+"))).scale(Fraction(1, 2))
    two = Cyc.rational(2, order)
    pairing = {
        ("w+", "w+"): Cyc.zero(order), ("w-", "w-"): Cyc.zero(order),
        ("w+", "w-"): two, ("w-", "w+"): two,
    }
    pairing_table = {
        key: Vec.single(order, (0, 0), val) if not val.is_zero() else Vec(order)
        for key, val in pairing.items()
    }
    metric = MetricData(cal, g, pairing_table)

    # Levi-Civita: nabla w = 0, sigma = flip
    flip = Morphism(T11, T11, {(i, j): T11.el((j, i)) for (i, j) in T11.basis}, "flip")
    conn = ConnectionData(cal, O1, {i: Vec(order) for i in O1.basis}, sigma=flip)

    herm = hermitian_from_real(metric)
    h1, h2 = split_hermitian(herm, cs)

    def complex_op(name):
        # I(w+) = i w+, I(w-) = -i w-
        sign = i_unit if name == "w+" else -i_unit
        return O1.el(name).scale(sign)

    kappa = fundamental_form(cal, cs, pairing, complex_op)
    kahler = KahlerData(cal, cs, kappa, dimension=1)

    holo10 = holomorphic_from_factorizable(cs, (1, 0))
    holo01 = holomorphic_from_factorizable(cs, (0, 1))
    return cal, cs, metric, conn, herm, (h1, h2), kahler, holo10, holo01


def classical_torus(order=4, box=4, samples=100, seed=42):
    order = int(math.lcm(4, order))
    A = GroupAlgebra(2, scalar_order=order, name="C[Z^2]")
    B = SelfComodule(A, name="O(T^2)")
    data = trivial_cocycle(A)
    cal, cs, metric, conn, herm, splits, kahler, h10, h01 = build_torus_geometry(B, order)
    return attach_twist(ModelBundle(
        name="classical_torus", hopf=A, comodule=B, data=data, calculus=cal,
        complex_structure=cs, metric=metric, connection=conn, hermitian=herm,
        hermitian_splits=splits, kahler=kahler, holo_10=h10, holo_01=h01,
        box=box, samples=samples, seed=seed))


def nc_torus(p=1, q=3, box=4, samples=100, seed=42):
    """The theta-deformed torus: classical_torus twisted by the theta cocycle."""
    if q <= 0:
        raise ValueError("q must be positive")
    g = math.gcd(abs(p), q)
    if g:
        p, q = p // g, q // g
    order = math.lcm(4, q)
    base = classical_torus(order=order, box=box, samples=samples, seed=seed)
    theta = Fraction(p, q)
    if theta == 0:
        data = trivial_cocycle(base.hopf)
    else:
        data = theta_cocycle(base.hopf, [[0, theta], [-theta, 0]])
    bundle = ModelBundle(
        name=f"nc_torus({p},{q})", hopf=base.hopf, comodule=base.comodule,
        data=data, calculus=base.calculus, complex_structure=base.complex_structure,
        metric=base.metric, connection=base.connection, hermitian=base.hermitian,
        hermitian_splits=base.hermitian_splits, kahler=base.kahler,
        holo_10=base.holo_10, holo_01=base.holo_01,
        box=box, samples=samples, seed=seed)
    attach_twist(bundle)
    return bundle


def attach_twist(bundle):
    bundle.twisted_hopf = twist_hopf(bundle.hopf, bundle.data)
    bundle.twisted_comodule = twist_comodule_algebra(
        bundle.comodule, bundle.data, bundle.twisted_hopf)
    return bundle


@dataclass
class TwistedWorld:
    """All deformed structures of a geometric bundle, built on demand."""

    bundle: ModelBundle
    hopf: object = None
    comodule: object = None
    calculus: Calculus = None
    complex_structure: ComplexStructure = None
    metric: MetricData = None
    connection: ConnectionData = None
    hermitian: HermitianData = None
    hermitian_splits: tuple = None
    kahler: KahlerData = None
    holo_10: object = None
    holo_01: object = None


def twist_world(bundle):
    """Deform every geometric structure of the bundle by its cocycle."""
    if bundle.twisted_hopf is None:
        attach_twist(bundle)
    data = bundle.data
    Btw = bundle.twisted_comodule
    cal_tw = twist_calculus(bundle.calculus, data, Btw)
    cs_tw = twist_complex_structure(bundle.complex_structure, cal_tw)
    metric_tw = twist_metric(bundle.metric, data, cal_tw)
    conn_tw = twist_connection(bundle.connection, data, cal_tw)
    herm_tw = twist_hermitian(bundle.hermitian, data, cal_tw)
    splits_tw = None
    if bundle.hermitian_splits is not None:
        splits_tw = tuple(
            twist_hermitian(h, data, cal_tw) for h in bundle.hermitian_splits)
    kahler_tw = KahlerData(cal_tw, cs_tw, Form(2, bundle.kahler.kappa.vec),
                           bundle.kahler.dimension)
    view10_tw = cs_tw
    view01_tw = cs_tw.opposite()
    holo10_tw = twist_holomorphic(bundle.holo_10, data, view10_tw, Btw)
    holo01_tw = twist_holomorphic(bundle.holo_01, data, view01_tw, Btw)
    return TwistedWorld(
        bundle=bundle, hopf=bundle.twisted_hopf, comodule=Btw, calculus=cal_tw,
        complex_structure=cs_tw, metric=metric_tw, connection=conn_tw,
        hermitian=herm_tw, hermitian_splits=splits_tw, kahler=kahler_tw,
        holo_10=holo10_tw, holo_01=holo01_tw)


def untwist_world(bundle, world):
    """Deform a twisted world by gammabar; must reproduce the bundle's tables."""
    from .cocycle import twist_hopf as _twist_hopf
    data_bar = bundle.data.inverse_data(world.hopf)
    hopf_back = _twist_hopf(world.hopf, data_bar)
    com_back = twist_comodule_algebra(world.comodule, data_bar, hopf_back)
    cal_back = twist_calculus(world.calculus, data_bar, com_back)
    return TwistedWorld(
        bundle=bundle, hopf=hopf_back, comodule=com_back, calculus=cal_back,
        complex_structure=twist_complex_structure(world.complex_structure, cal_back),
        metric=twist_metric(world.metric, data_bar, cal_back),
        connection=twist_connection(world.connection, data_bar, cal_back),
        hermitian=twist_hermitian(world.hermitian, data_bar, cal_back))


def correspondence_roundtrips(bundle, rep=None):
    """The four bijections between metrics and Hermitian metrics, as checks."""
    from .report import Report, outcome, table_outcomes

    if rep is None:
        rep = Report()
    if bundle.calculus is None:
        rep.add_skipped("corr.roundtrips", "plumbing", "model has no calculus")
        return rep
    from .calculus import Form
    from .modules import conj_of

    cal = bundle.calculus
    O1 = cal.module(1)
    herm = bundle.hermitian
    world = twist_world(bundle)

    def real_hermitian_real(ij_want):
        (i, j), want = ij_want
        starred = cal.star(Form(1, O1.el(j))).vec
        if herm.pair(O1.el(i), conj_of(O1, starred)) != want:
            return f"pairing not recovered from H at ({i},{j})"
        return None

    rep.forall("corr.real-hermitian-real", "hermitian.correspondence",
               bundle.metric.pairing_table.items(), real_hermitian_real)

    back = untwist_world(bundle, world)

    def metric_twist_untwist():
        yield "g not recovered after gamma then gammabar" if back.metric.g != bundle.metric.g else None
        yield from table_outcomes(bundle.metric.pairing_table, back.metric.pairing_table,
                                  bundle.metric.pairing_table, "pairing not recovered")

    rep.forall("corr.metric-twist-untwist", "twist.inverse-deformation",
               metric_twist_untwist(), outcome)
    rep.forall("corr.hermitian-twist-untwist", "twist.inverse-deformation",
               table_outcomes(herm.table, back.hermitian.table, herm.table, "H not recovered"),
               outcome)

    def commuting_square():
        yield from table_outcomes(
            world.hermitian.table, hermitian_from_real(world.metric).table, world.hermitian.table,
            "twist-then-correspond differs from correspond-then-twist")

    rep.forall("corr.commuting-square", "twist.hermitian-metric-route", commuting_square(),
               outcome)
    return rep


def finite_bicharacter(n=5, pairing="skew", box=0, samples=100, seed=42):
    """C[Z_n x Z_n] with a root-of-unity bicharacter cocycle (exhaustive suites).

    `pairing` names a bicharacter (skew, upper, trivial) or is its 2x2
    matrix of rationals.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if isinstance(pairing, str) and pairing not in ("skew", "upper", "trivial"):
        raise ValueError(f"unknown pairing {pairing!r}; available: skew, upper, trivial")
    A = GroupAlgebra(0, (n, n), scalar_order=n, name=f"C[Z{n}^2]")
    B = SelfComodule(A)
    if pairing == "skew":
        mat = [[0, 1], [-1, 0]]
    elif pairing == "upper":
        mat = [[0, 1], [0, 0]]
    elif pairing == "trivial":
        return attach_twist(ModelBundle(
            name=f"finite_bicharacter({n},trivial)", hopf=A, comodule=B,
            data=trivial_cocycle(A), box=box, samples=samples, seed=seed))
    else:
        mat = pairing
    data = bicharacter_cocycle(A, mat)
    bundle = ModelBundle(
        name=f"finite_bicharacter({n},{pairing})", hopf=A, comodule=B, data=data,
        box=box, samples=samples, seed=seed)
    return attach_twist(bundle)


def fun_group(group="s3", box=0, samples=100, seed=42):
    """Function algebra instrument (trivial cocycle, non-grouplike Sweedler)."""
    if group != "s3":
        raise ValueError(f"unknown group {group!r}; available: s3")
    A = fun_s3()
    B = SelfComodule(A)
    bundle = ModelBundle(
        name=f"fun_group({group})", hopf=A, comodule=B, data=trivial_cocycle(A),
        box=box, samples=samples, seed=seed)
    return attach_twist(bundle)


def build_model(name, **params):
    if name == "classical_torus":
        return classical_torus(**params)
    if name == "nc_torus":
        return nc_torus(**params)
    if name == "finite_bicharacter":
        return finite_bicharacter(**params)
    if name == "fun_group":
        return fun_group(**params)
    raise ValueError(f"unknown model {name!r}")
