"""Documented single-entry perturbations and the suites that catch them.

A fault is data: one table entry of a freshly built `nc_torus(1, 3)` and its
new value.  `_entry` edits a geometric table found by its attribute path,
and `_cocycle` scales gamma or gammabar at one label pair.  Each fault names
the suite whose checks must fail with a witness.  They double as
sensitivity proof for the verification layer: a perturbation that no suite
notices would mean a vacuous check somewhere.
"""

from collections import namedtuple
from functools import partial, reduce

from .cyclotomic import Cyc
from .cocycle import CocycleData, PairFunctional, convolution_inverse, trivial_cocycle
from .hopf import FunctionAlgebra, symmetric_group
from .models import fun_group, nc_torus
from .modules import SelfComodule
from .vectors import Vec


# build: () -> perturbed bundle
Fault = namedtuple("Fault", "name suite description build")


def _nc():
    return nc_torus(1, 3, box=2, samples=24)


def _entry(path, key, new):
    """A fresh model whose table at the dotted attribute `path` has
    table[key] = new(bundle, table[key]); reading the old entry first makes a
    misspelt key raise, so no key is ever added."""
    b = _nc()
    table = reduce(getattr, path.split("."), b)
    table[key] = new(b, table[key])
    return b


def _cocycle(which, pair, factor):
    """A fresh model whose `which` ("gamma" or "gamma_bar") is times factor at
    one label pair.  A scaled gamma gets its convolution inverse again; a
    scaled gammabar is left without one."""
    b = _nc()
    f = getattr(b.data, which)

    def fn(l1, l2):
        v = f(l1, l2)
        return v * factor if (l1, l2) == pair else v

    scaled = PairFunctional(fn)
    if which == "gamma":
        return b.replace(data=CocycleData(b.hopf, scaled, convolution_inverse(scaled, b.hopf)))
    return b.replace(data=CocycleData(b.hopf, b.data.gamma, scaled))


def fault_antipode_corrupted():
    # The antipode is a memoised method, not a table, so only a subclass can change it.
    class Corrupted(FunctionAlgebra):
        def antipode(self, label):
            if label == self.elements[2]:
                return self.el(self.elements[3])
            return super().antipode(label)

    A = Corrupted(symmetric_group(3))
    return fun_group("s3").replace(hopf=A, comodule=SelfComodule(A), data=trivial_cocycle(A))


def _times_zeta3(_bundle, v):
    return v.scale(Cyc.root(3))


FAULTS = [
    Fault("cocycle-value-scaled", "cocycle", "gamma multiplied by zeta_3 at one label pair",
          partial(_cocycle, "gamma", ((1, 0), (0, 1)), Cyc.root(3))),
    Fault("cocycle-inverse-corrupted", "cocycle",
          "gammabar multiplied by zeta_3 at one label pair",
          partial(_cocycle, "gamma_bar", ((0, 1), (1, 0)), Cyc.root(3))),
    Fault("cocycle-modulus-broken", "cocycle",
          "gamma scaled by 2 at one label pair (unitarity broken)",
          partial(_cocycle, "gamma", ((1, 0), (0, 1)), 2)),
    Fault("antipode-corrupted", "hopf", "antipode table wrong at one delta label of fun(S3)",
          fault_antipode_corrupted),
    Fault("sigma-scaled", "metric", "sigma(w+ (x) w-) scaled by zeta_3",
          partial(_entry, "connection.sigma.table", ("w+", "w-"), _times_zeta3)),
    Fault("pairing-corrupted", "metric", "(w+, w+) set to 1 (diamond and duality broken)",
          partial(_entry, "metric.pairing_table", ("w+", "w+"),
                  lambda b, v: Vec.single(b.hopf.scalar_order, (0, 0), 1))),
    Fault("connection-perturbed", "metric", "nabla(w+) set to w+ (x) w-",
          partial(_entry, "connection.table", "w+",
                  lambda b, v: b.connection.tensor.el(("w+", "w-")))),
    Fault("hermitian-scaled", "hermitian",
          "H(bar w+) scaled by zeta_3 (conjugate symmetry broken)",
          partial(_entry, "hermitian.table", ("bar", "w+"), _times_zeta3)),
    Fault("wedge-corrupted", "calculus",
          "w+ ^ w- scaled by zeta_3 (star antimultiplicativity broken)",
          partial(_entry, "calculus.wedge_table", ("w+", "w-"), _times_zeta3)),
    Fault("d-corrupted", "calculus", "d(w+) set to vol (d-squared broken)",
          partial(_entry, "calculus.d_table", "w+",
                  lambda b, v: b.calculus.module(2).el("vol"))),
]
