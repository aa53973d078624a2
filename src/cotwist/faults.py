"""Documented single-entry perturbations and the suites that catch them.

Each fault mutates exactly one table entry of a freshly built model and
names the suite whose checks must fail with a witness.  They double as
sensitivity proof for the verification layer: a perturbation that no suite
notices would mean a vacuous check somewhere.
"""

from collections import namedtuple

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


def _scaled(f, pair, factor):
    """The pair functional f with its value at one label pair times factor."""

    def fn(a, b):
        v = f(a, b)
        return v * factor if (a, b) == pair else v

    return PairFunctional(fn)


def _scale_gamma(bundle, pair, factor):
    gamma = _scaled(bundle.data.gamma, pair, factor)
    gamma_bar = convolution_inverse(gamma, bundle.hopf)
    return bundle.replace(data=CocycleData(bundle.hopf, gamma, gamma_bar))


def fault_cocycle_scaled():
    return _scale_gamma(_nc(), ((1, 0), (0, 1)), Cyc.root(3))


def fault_cocycle_inverse_corrupted():
    b = _nc()
    bar = _scaled(b.data.gamma_bar, ((0, 1), (1, 0)), Cyc.root(3))
    return b.replace(data=CocycleData(b.hopf, b.data.gamma, bar))


def fault_cocycle_modulus():
    return _scale_gamma(_nc(), ((1, 0), (0, 1)), 2)


def fault_antipode_corrupted():
    class Corrupted(FunctionAlgebra):
        def antipode(self, label):
            if label == self.elements[2]:
                return self.el(self.elements[3])
            return super().antipode(label)

    A = Corrupted(symmetric_group(3))
    return fun_group("s3").replace(hopf=A, comodule=SelfComodule(A), data=trivial_cocycle(A))


def fault_sigma_scaled():
    b = _nc()
    sigma = b.connection.sigma
    key = ("w+", "w-")
    sigma.table[key] = sigma.table[key].scale(Cyc.root(3))
    return b


def fault_pairing_corrupted():
    b = _nc()
    b.metric.pairing_table[("w+", "w+")] = Vec.single(
        b.hopf.scalar_order, (0, 0), 1)
    return b


def fault_connection_perturbed():
    b = _nc()
    tens = b.connection.tensor
    b.connection.table["w+"] = tens.el(("w+", "w-"))
    return b


def fault_hermitian_scaled():
    b = _nc()
    key = ("bar", "w+")
    b.hermitian.table[key] = b.hermitian.table[key].scale(Cyc.root(3))
    return b


def fault_wedge_corrupted():
    b = _nc()
    b.calculus.wedge_table[("w+", "w-")] = \
        b.calculus.wedge_table[("w+", "w-")].scale(Cyc.root(3))
    return b


def fault_d_corrupted():
    b = _nc()
    b.calculus.d_table["w+"] = b.calculus.module(2).el("vol")
    return b


FAULTS = [
    Fault("cocycle-value-scaled", "cocycle",
          "gamma multiplied by zeta_3 at one label pair", fault_cocycle_scaled),
    Fault("cocycle-inverse-corrupted", "cocycle",
          "gammabar multiplied by zeta_3 at one label pair",
          fault_cocycle_inverse_corrupted),
    Fault("cocycle-modulus-broken", "cocycle",
          "gamma scaled by 2 at one label pair (unitarity broken)",
          fault_cocycle_modulus),
    Fault("antipode-corrupted", "hopf",
          "antipode table wrong at one delta label of fun(S3)",
          fault_antipode_corrupted),
    Fault("sigma-scaled", "metric",
          "sigma(w+ (x) w-) scaled by zeta_3", fault_sigma_scaled),
    Fault("pairing-corrupted", "metric",
          "(w+, w+) set to 1 (diamond and duality broken)",
          fault_pairing_corrupted),
    Fault("connection-perturbed", "metric",
          "nabla(w+) set to w+ (x) w-", fault_connection_perturbed),
    Fault("hermitian-scaled", "hermitian",
          "H(bar w+) scaled by zeta_3 (conjugate symmetry broken)",
          fault_hermitian_scaled),
    Fault("wedge-corrupted", "calculus",
          "w+ ^ w- scaled by zeta_3 (star antimultiplicativity broken)",
          fault_wedge_corrupted),
    Fault("d-corrupted", "calculus",
          "d(w+) set to vol (d-squared broken)", fault_d_corrupted),
]
