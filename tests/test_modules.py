"""`FreeModule.lmul` and `rmul` on the twisted nc_torus(1,3), against their
four-loop forms.

The base B_gamma of the twisted torus is noncommutative, so a product whose
factors are swapped shows.  The one-form module's bases are central, so its
right action is the plain swap b.e_i; a module whose basis elements commute
with u_m only up to a character makes the right-action table count too.
Elements have several terms and coefficients other than 1: a monomial with
coefficient 1 would take the unit paths of `Vec` alone.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cotwist.cyclotomic import Cyc
from cotwist.models import nc_torus, twist_world
from cotwist.modules import CentralBasisModule, ConjugateModule, TensorModule
from cotwist.relhopf import TwistedModule
from cotwist.vectors import Vec


class CharacterModule(CentralBasisModule):
    """Free on a coinvariant basis with e_i . u_m = zeta^(m0 + 2 m1) u_m . e_i."""

    def _chi(self, m):
        return Cyc.root(self.scalar_order, m[0] + 2 * m[1])

    def r_act(self, i, b_label):
        return Vec.single(self.scalar_order, (b_label, i), self._chi(b_label))

    def l_to_r(self, b_label, i):
        return Vec.single(self.scalar_order, (i, b_label), self._chi(b_label).inverse())


def _modules():
    bundle = nc_torus(1, 3, box=2, samples=4)
    tw = twist_world(bundle)
    one_forms = tw.calculus.module(1)
    weighted = TwistedModule(CharacterModule(bundle.comodule, ["e", "f"]), bundle.data,
                             tw.comodule)
    mods = {"one-forms": one_forms, "weighted": weighted, "conjugate": ConjugateModule(one_forms),
            "conjugate-weighted": ConjugateModule(weighted),
            "tensor": TensorModule(one_forms, weighted)}
    return tw.comodule, tw.hopf.labels_box(1), mods


BASE, LABELS, MODULES = _modules()
ORDER = BASE.scalar_order
COEFFS = [Cyc.rational(2, ORDER), Cyc.rational(-1, ORDER), Cyc.rational(Fraction(1, 2), ORDER),
          Cyc.root(ORDER, 5), Cyc(ORDER, {0: 1, 5: 1}), Cyc(ORDER, {3: Fraction(-1, 3)})]


def lmul_loops(mod, b_vec, elem):
    """b_vec . elem term by term: b2 . (b e_i) = (b2 b) e_i."""
    out = Vec(mod.scalar_order)
    for (b, i), c in elem.terms.items():
        for b2, c2 in b_vec.terms.items():
            for b3, c3 in mod.base.mult(b2, b).terms.items():
                out.add_term((b3, i), c * c2 * c3)
    return out


def rmul_loops(mod, elem, b_vec):
    """elem . b_vec term by term: (b e_i) . b2 = b (e_i . b2) = (b b3) e_i2."""
    out = Vec(mod.scalar_order)
    for (b, i), c in elem.terms.items():
        for b2, c2 in b_vec.terms.items():
            for (b3, i2), c3 in mod.r_act(i, b2).terms.items():
                for b4, c4 in mod.base.mult(b, b3).terms.items():
                    out.add_term((b4, i2), c * c2 * c3 * c4)
    return out


def vecs(keys):
    return st.dictionaries(keys, st.sampled_from(COEFFS), min_size=2, max_size=3).map(
        lambda terms: Vec(ORDER, terms))


labels = st.sampled_from(LABELS)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(MODULES)), st.data())
def test_module_products_match_their_loop_forms(name, data):
    mod = MODULES[name]
    elem = data.draw(vecs(st.tuples(labels, st.sampled_from(mod.basis))))
    b_vec = data.draw(vecs(labels))
    assert mod.lmul(b_vec, elem) == lmul_loops(mod, b_vec, elem)
    assert mod.rmul(elem, b_vec) == rmul_loops(mod, elem, b_vec)


def test_the_reference_sees_the_order_of_factors_and_the_right_action():
    # the test above could not tell a mutant apart if its models hid either
    mod = MODULES["weighted"]
    x, y = Vec.single(ORDER, (1, 0), 2), Vec.single(ORDER, (0, 1), 3)
    xe = mod.from_b(x, "e")
    assert lmul_loops(mod, y, xe) != lmul_loops(mod, x, mod.from_b(y, "e"))
    assert rmul_loops(mod, mod.el("e"), y) != mod.from_b(y, "e")
