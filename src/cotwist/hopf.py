"""Hopf *-algebra presentations with finite Sweedler expansion.

Two instance families cover every model in the engine: group algebras of
finitely generated abelian groups (lattice labels, grouplike coproduct)
and function algebras of finite groups (delta labels, whose coproduct
forces genuinely multi-term Sweedler sums through every general formula).

All structure maps are tables on basis labels returning Vec linear
combinations; elements are Vec over labels.  Verification quantifies over
explicit finite label boxes since the lattice families are infinite.
"""

from __future__ import annotations

import itertools
import math
import operator

from .cyclotomic import Cyc
from .vectors import Vec, memoize_tables


class LabelAlgebra:
    """The element level of a *-algebra given by `mult` and `star` tables on
    basis labels: elements are Vec over labels, extended (anti)linearly."""

    def zero(self):
        return Vec(self.scalar_order)

    def el(self, label, coeff=1):
        if type(coeff) is int and coeff == 1:
            return self.basis(label)
        return Vec.single(self.scalar_order, label, coeff)

    def basis(self, label):
        """The basis vector of a label, memoised by the algebras: shared, never written."""
        return Vec.single(self.scalar_order, label)

    def mult_elem(self, v, w):
        return v.apply2(w, self.mult)

    def star_elem(self, v):
        return v.apply_conj(self.star)


class HopfAlgebra(LabelAlgebra):
    """Base protocol: label tables for mult/unit/coproduct/counit/S/S^-1/star."""

    scalar_order = 1
    # every basis label grouplike: Delta(l) = l (x) l
    grouplike_basis = False

    def mult(self, l1, l2):
        raise NotImplementedError

    def unit(self):
        raise NotImplementedError

    def coproduct(self, label):
        """Vec over pairs (l1, l2)."""
        raise NotImplementedError

    def counit(self, label):
        raise NotImplementedError

    def antipode(self, label):
        raise NotImplementedError

    def antipode_inv(self, label):
        raise NotImplementedError

    def star(self, label):
        raise NotImplementedError

    def label_name(self, label):
        return str(label)

    def finite_labels(self):
        """All labels for finite algebras, None for infinite families."""
        return None

    def labels_box(self, box):
        """Finite verification box of labels."""
        fin = self.finite_labels()
        if fin is not None:
            return list(fin)
        raise NotImplementedError

    # -- element level (linear/antilinear extensions of the tables) -------

    def antipode_elem(self, v):
        return v.apply(self.antipode)

    def antipode_inv_elem(self, v):
        return v.apply(self.antipode_inv)

    def coproduct_elem(self, v):
        return v.apply(self.coproduct)

    def sweedler(self, label, legs):
        """Iterated coproduct of a basis label as a Vec over `legs`-tuples.

        Expands the last tensor slot repeatedly; coassociativity (checked
        separately) makes the bracketing immaterial.  The concrete algebras
        memoise it, so callers must not mutate the result.
        """
        out = Vec.single(self.scalar_order, (label,))
        for _ in range(legs - 1):
            out = out.apply(
                lambda key: self.coproduct(key[-1]).map_keys(lambda ab: key[:-1] + ab))
        return out

    def sweedler_first(self, label, legs):
        """Same as sweedler() but expanding the first slot (cross-check path)."""
        out = Vec.single(self.scalar_order, (label,))
        for _ in range(legs - 1):
            out = out.apply(
                lambda key: self.coproduct(key[0]).map_keys(lambda ab: ab + key[1:]))
        return out


class GroupAlgebra(HopfAlgebra):
    """C[Z^r x Z_k1 x ... x Z_ks] with its compact-form *-structure.

    Labels are integer tuples (residues normalised in the finite slots);
    every basis label is grouplike, star and antipode both send a label to
    its inverse, which is what makes C[Z^2] the coordinate algebra of the
    2-torus.
    """

    grouplike_basis = True

    def __init__(self, free_rank, torsion=(), scalar_order=1):
        self.free_rank = free_rank
        self.torsion = tuple(torsion)
        self.rank = free_rank + len(self.torsion)
        self.scalar_order = scalar_order
        memoize_tables(self, "basis", "mult", "coproduct", "sweedler", "star", "antipode",
                       "antipode_inv", "unit")

    def normalise(self, label):
        lab = list(label)
        for i, n in enumerate(self.torsion):
            lab[self.free_rank + i] %= n
        return tuple(lab)

    def _neg(self, l):
        return self.normalise(tuple(-a for a in l))

    def mult(self, l1, l2):
        label = tuple(map(operator.add, l1, l2))
        return self.basis(self.normalise(label) if self.torsion else label)

    def unit(self):
        return self.el((0,) * self.rank)

    def coproduct(self, label):
        return Vec.single(self.scalar_order, (label, label))

    def counit(self, label):
        return Cyc.one(self.scalar_order)

    def antipode(self, label):
        return self.el(self._neg(label))

    antipode_inv = antipode

    def star(self, label):
        return self.el(self._neg(label))

    def finite_labels(self):
        if self.free_rank:
            return None
        return [tuple(lab) for lab in itertools.product(*[range(n) for n in self.torsion])]

    def labels_box(self, box):
        fin = self.finite_labels()
        if fin is not None:
            return fin
        free = list(itertools.product(*[range(-box, box + 1)] * self.free_rank))
        tors = list(itertools.product(*[range(n) for n in self.torsion]))
        return [f + t for f in free for t in tors]

    def box_size(self, box):
        """How many labels labels_box(box) lists, counted without listing them."""
        return (2 * box + 1) ** self.free_rank * math.prod(self.torsion)

    def label_name(self, label):
        return "u(" + ",".join(str(a) for a in label) + ")"


class Permutation(tuple):
    """A permutation of range(n) stored as its image tuple."""

    def __mul__(self, other):
        # (self*other)(i) = self(other(i))
        return Permutation(self[o] for o in other)

    def inv(self):
        out = [0] * len(self)
        for i, v in enumerate(self):
            out[v] = i
        return Permutation(out)


def symmetric_group(n):
    return [Permutation(p) for p in itertools.permutations(range(n))]


class FunctionAlgebra(HopfAlgebra):
    """Functions on a finite group: delta-function labels, pointwise product.

    The coproduct sums over factorisations, so Sweedler legs are genuinely
    multi-term; the unit is the sum of all deltas.
    """

    def __init__(self, elements, scalar_order=1):
        self.elements = list(elements)
        self.identity = next(g for g in self.elements if g == g * g)
        self.scalar_order = scalar_order
        self._factorisations = {}
        for g in self.elements:
            self._factorisations[g] = [(h, h.inv() * g) for h in self.elements]
        memoize_tables(self, "basis", "mult", "coproduct", "sweedler", "unit", "star",
                       "antipode", "antipode_inv", "counit")

    def mult(self, l1, l2):
        if l1 == l2:
            return self.el(l1)
        return self.zero()

    def unit(self):
        return Vec(self.scalar_order, dict.fromkeys(self.elements, 1))

    def coproduct(self, label):
        return Vec(self.scalar_order, dict.fromkeys(self._factorisations[label], 1))

    def counit(self, label):
        if label == self.identity:
            return Cyc.one(self.scalar_order)
        return Cyc.zero(self.scalar_order)

    def antipode(self, label):
        return self.el(label.inv())

    antipode_inv = antipode

    def star(self, label):
        return self.el(label)

    def finite_labels(self):
        return list(self.elements)

    def label_name(self, label):
        return "d[" + "".join(str(i) for i in label) + "]"


def fun_s3(scalar_order=1):
    return FunctionAlgebra(symmetric_group(3), scalar_order)


# -- axiom verification -----------------------------------------------------


def at(alg, what):
    """The witness `what at <label>` of a check over the labels of `alg`."""
    return lambda l: f"{what} at {alg.label_name(l)}"


def at_labels(alg, what):
    """The witness `what at (<l1>,...,<lk>)` of a check over label tuples."""
    return lambda ls: f"{what} at ({','.join(map(alg.label_name, ls))})"


def verify_hopf_axioms(A, labels, reporter, prefix="hopf", pair_samples=None):
    """Run the Hopf *-algebra axiom suite over a finite label box.

    Checks multiplicativity-side axioms on sampled pairs/triples and the
    comultiplication-side axioms on every boxed label.  Failures are
    recorded with a witness, never raised.
    """
    labels = list(labels)
    pairs = pair_samples if pair_samples is not None else [
        (a, b) for a in labels for b in labels]

    reporter.equal(f"{prefix}.coassociativity", "coproduct.coassociativity", labels,
                   lambda l: (A.sweedler(l, 3), A.sweedler_first(l, 3)),
                   at(A, "coassociativity fails"))

    def counit_collapse(l):
        cp = A.coproduct(l)
        return ((cp.apply(lambda ab: A.el(ab[1], A.counit(ab[0]))),
                 cp.apply(lambda ab: A.el(ab[0], A.counit(ab[1])))), (A.el(l),) * 2)

    reporter.equal(f"{prefix}.counit-collapse", "counit.left-right-law", labels,
                   counit_collapse, at(A, "counit law fails"))

    def antipode_convolution(l):
        cp = A.coproduct(l)
        return ((cp.apply(lambda ab: A.mult_elem(A.antipode(ab[0]), A.el(ab[1]))),
                 cp.apply(lambda ab: A.mult_elem(A.el(ab[0]), A.antipode(ab[1])))),
                (A.unit().scale(A.counit(l)),) * 2)

    reporter.equal(f"{prefix}.antipode-convolution", "antipode.convolution-law", labels,
                   antipode_convolution, at(A, "antipode convolution law fails"))
    reporter.equal(f"{prefix}.antipode-bijective", "antipode.bijectivity", labels,
                   lambda l: ((A.antipode_inv_elem(A.antipode_elem(A.el(l))),
                               A.antipode_elem(A.antipode_inv_elem(A.el(l)))), (A.el(l),) * 2),
                   at(A, "S^-1 fails"))
    reporter.equal(f"{prefix}.coproduct-star-hom", "coproduct.star-homomorphism", labels,
                   lambda l: (A.coproduct_elem(A.star(l)), A.coproduct(l).apply_conj(
                       lambda ab: A.star(ab[0]).tensor(A.star(ab[1])))),
                   at(A, "Delta(a*) != (*x*)Delta(a)"))
    reporter.equal(f"{prefix}.star-squared-antipode", "antipode.star-square-identity", labels,
                   lambda l: (A.antipode_elem(A.star_elem(A.antipode_elem(A.star(l)))), A.el(l)),
                   at(A, "S(S(a*)*) != a"))
    reporter.equal(f"{prefix}.associativity", "plumbing",
                   ((a, b, c) for a, b in pairs[: len(labels) ** 2] for c in labels[:3]),
                   lambda abc: (A.mult_elem(A.mult(*abc[:2]), A.el(abc[2])),
                                A.mult_elem(A.el(abc[0]), A.mult(*abc[1:]))),
                   at_labels(A, "associativity fails"))

    one = A.unit()
    reporter.equal(f"{prefix}.unit-law", "plumbing", labels,
                   lambda l: ((A.mult_elem(one, A.el(l)), A.mult_elem(A.el(l), one)),
                              (A.el(l),) * 2),
                   at(A, "unit law fails"))
    # Delta(a) Delta(b) = a1 b1 (x) a2 b2
    reporter.equal(f"{prefix}.coproduct-algebra-map", "bialgebra.compatibility", pairs,
                   lambda ab: (A.coproduct_elem(A.mult(*ab)), A.coproduct(ab[0]).apply2(
                       A.coproduct(ab[1]),
                       lambda x, y: A.mult(x[0], y[0]).tensor(A.mult(x[1], y[1])))),
                   at_labels(A, "Delta not multiplicative"))

    def star_antimultiplicative(ab):
        a, b = ab
        lhs = A.star_elem(A.mult(a, b))
        rhs = A.mult_elem(A.star(b), A.star(a))
        return (lhs, A.star_elem(A.star(a))), (rhs, A.el(a))

    reporter.equal(f"{prefix}.star-antimultiplicative", "plumbing", pairs,
                   star_antimultiplicative, at_labels(A, "* not an antimultiplicative involution"))


def verify_cocommutative_flip(A, labels, reporter, prefix="hopf"):
    reporter.equal(f"{prefix}.cocommutative-flip", "coproduct.cocommutativity", labels,
                   lambda l: (A.coproduct(l), A.coproduct(l).map_keys(lambda k: (k[1], k[0]))),
                   at(A, "flip.Delta != Delta"))
