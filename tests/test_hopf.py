"""Hopf presentations: group algebra of Z^2 and functions on S3."""

from cotwist.cyclotomic import Cyc
from cotwist.hopf import (
    FunctionAlgebra, GroupAlgebra, fun_s3, symmetric_group, verify_cocommutative_flip,
    verify_hopf_axioms)
from cotwist.report import Report
from cotwist.vectors import Vec


def test_group_algebra_structure():
    A = GroupAlgebra(2, scalar_order=12)
    u10 = (1, 0)
    assert A.coproduct(u10) == Vec.single(12, (u10, u10))
    assert A.star(u10) == A.el((-1, 0))
    assert A.antipode((3, -2)) == A.el((-3, 2))
    assert A.counit(u10) == Cyc.one(12)
    assert A.mult((1, 2), (3, -5)) == A.el((4, -3))


def test_fun_s3_coproduct_six_terms():
    A = fun_s3()
    g = symmetric_group(3)[3]
    cp = A.coproduct(g)
    assert len(cp.terms) == 6
    # dual of the group law: the pairs multiply back to g
    for (h, k), c in cp.terms.items():
        assert h * k == g
        assert c == Cyc.one(1)


def test_fun_s3_unit_and_counit():
    A = fun_s3()
    one = A.unit()
    assert len(one.terms) == 6
    assert one.evaluate(A.counit) == Cyc.one(1)


def test_hopf_axioms_group_algebra():
    A = GroupAlgebra(2, scalar_order=12)
    rep = Report()
    labels = A.labels_box(3)
    pairs = [(a, b) for a in A.labels_box(1) for b in A.labels_box(1)]
    verify_hopf_axioms(A, labels, rep, pair_samples=pairs)
    assert rep.passed, rep.to_text()
    verify_cocommutative_flip(A, labels, rep)
    assert rep.passed


def test_hopf_axioms_fun_s3():
    A = fun_s3()
    rep = Report()
    verify_hopf_axioms(A, A.finite_labels(), rep)
    assert rep.passed, rep.to_text()


def test_corrupted_antipode_caught_with_witness():
    base = fun_s3()

    class Corrupted(FunctionAlgebra):
        def antipode(self, label):
            if label == self.elements[2]:
                return self.el(self.elements[3])
            return super().antipode(label)

    A = Corrupted(symmetric_group(3))
    rep = Report()
    verify_hopf_axioms(A, A.finite_labels(), rep)
    assert not rep.passed
    failing = {c.check_id for c in rep.failures()}
    assert "hopf.antipode-convolution" in failing
    assert any(c.witness for c in rep.failures())


def test_sweedler_iteration_matches_both_bracketings():
    A = fun_s3()
    for g in A.finite_labels():
        assert A.sweedler(g, 3) == A.sweedler_first(g, 3)
        assert A.sweedler(g, 4) == A.sweedler_first(g, 4)
