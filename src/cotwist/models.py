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

import math
from functools import cache
from fractions import Fraction

from .calculus import (
    Calculus, ComplexStructure, fundamental_form, holomorphic_from_factorizable,
    twist_calculus, twist_holomorphic)
from .cocycle import TwistedHopf, bicharacter_cocycle, trivial_cocycle
from .cyclotomic import Cyc
from .geometry import (
    ChernNoSolution, ChernNotUnique, ConnectionData, MetricData, chern_solve,
    hermitian_from_real, split_hermitian, twist_connection, twist_hermitian, twist_metric)
from .hopf import GroupAlgebra, fun_s3
from .modules import CentralBasisModule, Morphism, SelfComodule, TensorModule
from .relhopf import TwistedComodule
from .vectors import Vec, memoize_tables


# The most labels a box may list on an infinite basis: the hopf suite sweeps
# every pair, a million here.  The torus allows box 15; the checks take <= 6.
MAX_BOX_LABELS = 1000


def check_sampling(hopf, box, samples):
    """Reject a negative label box or sample count, and a box that would list
    more than MAX_BOX_LABELS labels of an infinite basis."""
    if box < 0:
        raise ValueError(f"box must be >= 0, got {box}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    if hopf.finite_labels() is None and hopf.box_size(box) > MAX_BOX_LABELS:
        raise ValueError(f"box {box} lists more than {MAX_BOX_LABELS} labels")


class ModelBundle:
    """One world: Hopf and comodule algebras, a cocycle, optional geometry.

    A bundle holds no twisted structures; `twist_world` builds them.  Its
    Chern connections are derived data: `chern(tag)` solves each once.
    `kappa` is the Kahler form, a 2-form.
    """

    def __init__(self, *, name, hopf, comodule, data, calculus=None,
                 complex_structure=None, metric=None, connection=None, hermitian=None,
                 hermitian_splits=None, kappa=None, holo_10=None, holo_01=None,
                 box=4, samples=100, seed=42):
        check_sampling(hopf, box, samples)
        self.name = name
        self.hopf = hopf
        self.comodule = comodule
        self.data = data
        self.calculus = calculus
        self.complex_structure = complex_structure
        self.metric = metric
        self.connection = connection
        self.hermitian = hermitian
        self.hermitian_splits = hermitian_splits
        self.kappa = kappa
        self.holo_10 = holo_10
        self.holo_01 = holo_01
        self.box = box
        self.samples = samples
        self.seed = seed
        # per instance, so a `replace` copy solves afresh
        memoize_tables(self, "_chern_outcome")

    def replace(self, **changes):
        """A new bundle with these fields changed, validated again, with its
        own Chern solutions."""
        fields = {k: v for k, v in vars(self).items() if not k.startswith("_")}
        return ModelBundle(**{**fields, **changes})

    def is_geometric(self):
        return self.calculus is not None

    def chern_system(self, tag):
        """The holomorphic bimodule of bigrade `tag` ("10" or "01") and its
        block of the Hermitian metric."""
        h10, h01 = self.hermitian_splits
        return {"10": (self.holo_10, h10), "01": (self.holo_01, h01)}[tag]

    def chern(self, tag):
        """The Chern connection of `chern_system(tag)`, solved once.  A solver
        error is kept without its traceback and raised as a fresh copy."""
        out = self._chern_outcome(tag)
        if isinstance(out, (ChernNoSolution, ChernNotUnique)):
            raise type(out)(*out.args)
        return out

    def _chern_outcome(self, tag):
        try:
            return chern_solve(*self.chern_system(tag))
        except (ChernNoSolution, ChernNotUnique) as exc:
            return exc.with_traceback(None)


def _half(order):
    return Cyc.rational(Fraction(1, 2), order)


def build_torus_geometry(B, order):
    """The geometric `ModelBundle` fields: calculus, complex structure,
    metric, LC connection, Hermitian, Kahler and holomorphic data."""
    i_unit = Cyc.i(order)
    O0 = CentralBasisModule(B, ["1"])
    O1 = CentralBasisModule(B, ["w+", "w-"])
    O2 = CentralBasisModule(B, ["vol"])
    modules = {0: O0, 1: O1, 2: O2}

    zero2 = Vec(order)
    wedge_table = {
        ("w+", "w+"): zero2,
        ("w-", "w-"): zero2,
        ("w+", "w-"): O2.el("vol"),
        ("w-", "w+"): O2.el("vol").scale(-1),
    }

    @cache
    def d_base(label):
        # d(x^m y^n) = x^m y^n ((m - i n)/2 w+ + (m + i n)/2 w-)
        m, n = label
        cp = (Cyc.rational(m, order) - i_unit * n) * _half(order)
        cm = (Cyc.rational(m, order) + i_unit * n) * _half(order)
        return Vec(order, {(label, "w+"): cp, (label, "w-"): cm})

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
    cal = Calculus(B, modules, wedge_table, d_base, d_table, star_table)
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
    flip = Morphism(T11, T11, {(i, j): T11.el((j, i)) for (i, j) in T11.basis})
    conn = ConnectionData(cal, O1, {i: Vec(order) for i in O1.basis}, sigma=flip)

    herm = hermitian_from_real(metric)

    def complex_op(name):
        # I(w+) = i w+, I(w-) = -i w-
        sign = i_unit if name == "w+" else -i_unit
        return O1.el(name).scale(sign)

    return dict(
        calculus=cal, complex_structure=cs, metric=metric, connection=conn,
        hermitian=herm, hermitian_splits=split_hermitian(herm, cs),
        kappa=fundamental_form(cal, pairing, complex_op),
        holo_10=holomorphic_from_factorizable(cs, (1, 0)),
        holo_01=holomorphic_from_factorizable(cs, (0, 1)))


def classical_torus(order=4, box=4, samples=100, seed=42):
    order = int(math.lcm(4, order))
    A = GroupAlgebra(2, scalar_order=order)
    B = SelfComodule(A)
    return ModelBundle(
        name="classical_torus", hopf=A, comodule=B, data=trivial_cocycle(A),
        box=box, samples=samples, seed=seed, **build_torus_geometry(B, order))


def nc_torus(p=1, q=3, box=4, samples=100, seed=42):
    """The theta-deformed torus: classical_torus twisted by the theta cocycle.

    At theta = p/q, gamma(u_m (x) u_n) = e^{2 pi i theta (m1 n0 - m0 n1)}:
    the integer bicharacter with entries +-k = p N/q at N = lcm(4, q).
    """
    if q <= 0:
        raise ValueError("q must be positive")
    g = math.gcd(abs(p), q)
    if g:
        p, q = p // g, q // g
    order = math.lcm(4, q)
    base = classical_torus(order=order, box=box, samples=samples, seed=seed)
    k = p * order // q
    return base.replace(name=f"nc_torus({p},{q})",
                        data=bicharacter_cocycle(base.hopf, [[0, -k], [k, 0]]))


def twist_world(bundle):
    """Deform every structure of the bundle by its cocycle.

    The result is again a bundle, whose cocycle is gammabar on the twisted
    Hopf algebra: untwisting is `twist_world` of a twisted world.
    """
    data = bundle.data
    Atw = TwistedHopf(bundle.hopf, data)
    Btw = TwistedComodule(bundle.comodule, data, Atw)
    geometry = {}
    if bundle.is_geometric():
        cal_tw = twist_calculus(bundle.calculus, data, Btw)
        cs_tw = ComplexStructure(cal_tw, bundle.complex_structure.bigrade)
        geometry = dict(
            calculus=cal_tw, complex_structure=cs_tw,
            metric=twist_metric(bundle.metric, data, cal_tw),
            connection=twist_connection(bundle.connection, data, cal_tw),
            hermitian=twist_hermitian(bundle.hermitian, data, cal_tw),
            hermitian_splits=tuple(
                twist_hermitian(h, data, cal_tw) for h in bundle.hermitian_splits),
            kappa=bundle.kappa,
            holo_10=twist_holomorphic(bundle.holo_10, data, cs_tw, Btw),
            holo_01=twist_holomorphic(bundle.holo_01, data, cs_tw.opposite(), Btw))
    return ModelBundle(
        name=f"tw({bundle.name})", hopf=Atw, comodule=Btw, data=data.inverse_data(Atw),
        box=bundle.box, samples=bundle.samples, seed=bundle.seed, **geometry)


def finite_bicharacter(n=5, pairing="skew", box=0, samples=100, seed=42):
    """C[Z_n x Z_n] with a root-of-unity bicharacter cocycle (exhaustive suites).

    `pairing` names a bicharacter (skew, upper, trivial) or is its 2x2
    integer matrix.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if isinstance(pairing, str) and pairing not in ("skew", "upper", "trivial"):
        raise ValueError(f"unknown pairing {pairing!r}; available: skew, upper, trivial")
    A = GroupAlgebra(0, (n, n), scalar_order=n)
    B = SelfComodule(A)
    if pairing == "skew":
        mat = [[0, 1], [-1, 0]]
    elif pairing == "upper":
        mat = [[0, 1], [0, 0]]
    elif pairing == "trivial":
        return ModelBundle(
            name=f"finite_bicharacter({n},trivial)", hopf=A, comodule=B,
            data=trivial_cocycle(A), box=box, samples=samples, seed=seed)
    else:
        mat = pairing
    return ModelBundle(
        name=f"finite_bicharacter({n},{pairing})", hopf=A, comodule=B,
        data=bicharacter_cocycle(A, mat), box=box, samples=samples, seed=seed)


def fun_group(group="s3", box=0, samples=100, seed=42):
    """Function algebra instrument (trivial cocycle, non-grouplike Sweedler)."""
    if group != "s3":
        raise ValueError(f"unknown group {group!r}; available: s3")
    A = fun_s3()
    B = SelfComodule(A)
    return ModelBundle(
        name=f"fun_group({group})", hopf=A, comodule=B, data=trivial_cocycle(A),
        box=box, samples=samples, seed=seed)


MODELS = {"classical_torus": classical_torus, "nc_torus": nc_torus,
          "finite_bicharacter": finite_bicharacter, "fun_group": fun_group}


def build_model(name, **params):
    if name not in MODELS:
        raise ValueError(f"unknown model {name!r}")
    return MODELS[name](**params)
