"""cotwist: exact verification of unitary 2-cocycle deformations.

Twisted Hopf *-algebras, comodule algebras, relative Hopf modules,
covariant *-differential calculi, metrics, Hermitian metrics, complex
structures, holomorphic bimodules and Chern/Levi-Civita connections --
all with zero-tolerance cyclotomic arithmetic on concrete finite and
lattice models.
"""

from .cyclotomic import Cyc, format_scalar
from .vectors import Vec
from .hopf import FunctionAlgebra, GroupAlgebra, fun_s3
from .cocycle import (
    CocycleData, PairFunctional, TwistedHopf, bicharacter_cocycle,
    convolution_inverse, convolve, trivial_cocycle)
from .modules import (
    CentralBasisModule, ConjugateModule, FreeModule, HomModule, Morphism,
    SelfComodule, TensorModule, conj_of, unconj)
from .relhopf import (
    TwistedComodule, TwistedModule, conj_twist_iso, conj_twist_iso_inv,
    hom_twist_iso, phi_inv_map, phi_map)
from .calculus import (
    Calculus, ComplexStructure, factorization_inverse,
    holomorphic_from_factorizable, lefschetz_bijective,
    twist_calculus, twist_holomorphic)
from .geometry import (
    ConnectionData, HermitianData, MetricData, chern_solve,
    hermitian_from_real, split_hermitian, twist_connection,
    twist_hermitian, twist_metric)
from .models import (
    ModelBundle, build_model, classical_torus, finite_bicharacter,
    fun_group, nc_torus, twist_world)
from .report import Report
from .suites import SUITES, run_suite

__version__ = "0.1.0"
