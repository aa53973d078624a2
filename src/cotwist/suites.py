"""Verification suites: each maps a model bundle to report entries.

Suite names: hopf, cocycle, barfunctor, calculus, metric, hermitian, chern,
main; `all` is their union.  Every check id is unique to one suite, and the
identities are always evaluated with exact scalars, so pass/fail carries no
tolerance.  Sampling is seed-deterministic and the box is recorded.

Every check is one `Report.equal` or `Report.forall` over a lazy domain: a
label set, the keys of a stored table, a chain of a basis sweep and draws,
or `sampler.draws(cap, *kinds)`, whose argument kinds leave every random
draw to the `Sampler`.  An identity is an `equal`, whose `sides` give
(lhs, rhs): a pair of tuples where one draw checks several identities, with
a tuple of witness texts where each has its own, and (X, zero) for X = 0.  A
structure that a check compares against but that may raise (a rebuilt table,
a second solve) is a `functools.cache`d thunk read by `sides`, so its
exception is the check's `fail` at its first instance.  A check stays on
`forall` only when its defect is a predicate (a solve or its error,
`is_invertible`, the Lefschetz map, the diamond split, the bigrade
projections, the star swap) or when its domain is a generator of outcomes
(None or a witness, with `outcome` as its defect) that draws between its
checks.
"""

from __future__ import annotations

import random
from functools import cache, partial
from itertools import chain, product

from .calculus import NotFactorizable, factorization_inverse, lefschetz_bijective
from .cocycle import verify_cocycle_identities, verify_unitarity_suite
from .cyclotomic import Cyc
from .geometry import (
    ChernNotUnique, ChernNoSolution, DiamondViolation, chern_conditions_hold,
    chern_solve, conj_connection, hermitian_from_real, split_hermitian,
    twist_connection)
from .hopf import at, at_labels, verify_cocommutative_flip, verify_hopf_axioms
from .models import check_sampling, twist_world
from .modules import (
    CentralBasisModule, ConjugateModule, HomModule, Morphism, TensorModule,
    conj_of, covariance_sides, hom_apply, hom_coact, right_linear_defect, unconj,
    unit_coaction)
from .relhopf import (
    TwistedModule, bar_map, bb_map, conj_twist_iso, conj_twist_iso_inv, hom_twist_iso,
    phi_inv_map, phi_map, tensor_map_pair, twist_tensor_morphism, upsilon)
from .report import outcome
from .vectors import Vec, gauss_solve

CHERN_TAGS = ("10", "01")
# the most label pairs and triples a sweep of a sub-box may take
TUPLE_BUDGET = {2: 700, 3: 1000}


def _kind(tag):
    """The constructor of one argument kind of `Sampler.draw`: (tag, its arguments)."""
    return lambda *args: (tag, args)


LABEL, elem, el, choice = ("label", ()), _kind("elem"), _kind("el"), _kind("choice")


class Sampler:
    """Deterministic sampling over a declared box, and the one reader of its RNG.

    A sampled domain is `draws(cap, *kinds)`, and `draw(*kinds)` one instance.
    The kinds are drawn left to right; one kind gives the bare value, several
    a tuple.  Each kind, with its RNG calls in order:
      LABEL          a label: rng.choice(labels)
      el(B)          B.el(label): rng.choice(labels)
      choice(seq)    an element of seq: rng.choice(seq)
      elem(M)        M.from_b(base.el(label), i): rng.choice(M.basis), then the label
      elem(M0, M1)   elem(M) of M = rng.choice((M0, M1))
    """

    def __init__(self, bundle, box=None, samples=None, seed=None):
        self.bundle = bundle
        self.box = bundle.box if box is None else box
        self.n = bundle.samples if samples is None else samples
        self.seed = bundle.seed if seed is None else seed
        check_sampling(bundle.hopf, self.box, self.n)
        self.rng = random.Random(self.seed)
        self.labels = bundle.hopf.labels_box(self.box)
        self.exhaustive = bundle.hopf.finite_labels() is not None

    def spec(self):
        kind = "exhaustive" if self.exhaustive else f"box={self.box}"
        return f"{kind};samples={self.n};seed={self.seed}"

    def draw(self, *kinds):
        """One instance of the kinds, drawn left to right."""
        pick, out = self.rng.choice, []
        for tag, args in kinds:
            if tag == "elem":
                mod = args[0] if len(args) == 1 else pick(args)
                i = pick(mod.basis)
                out.append(mod.from_b(mod.base.el(pick(self.labels)), i))
            elif tag == "el":
                out.append(args[0].el(pick(self.labels)))
            else:
                out.append(pick(args[0] if tag == "choice" else self.labels))
        return out[0] if len(out) == 1 else tuple(out)

    def draws(self, cap, *kinds):
        """Lazily yield draw(*kinds) for min(n, cap) samples."""
        return (self.draw(*kinds) for _ in range(min(self.n, cap)))

    def tuples(self, arity, k=None):
        """Every arity-tuple of the labels when they are finite; else those of
        the largest sub-box within TUPLE_BUDGET, then k (default n) random ones."""
        if self.exhaustive:
            return list(product(self.labels, repeat=arity))
        hopf, m = self.bundle.hopf, 0
        while m < self.box and hopf.box_size(m + 1) ** arity <= TUPLE_BUDGET[arity]:
            m += 1
        return list(product(hopf.labels_box(m), repeat=arity)) + [
            self.draw(*(LABEL,) * arity) for _ in range(k or self.n)]


# -- hopf suite ---------------------------------------------------------------


def suite_hopf(bundle, world, back, rep, sampler):
    A = bundle.hopf
    labels = sampler.labels
    pairs = sampler.tuples(2, min(sampler.n, 30))
    verify_hopf_axioms(A, labels, rep, prefix="hopf.base", pair_samples=pairs)
    if A.is_grouplike_basis():
        verify_cocommutative_flip(A, labels, rep, prefix="hopf.base")

    Atw = world.hopf
    small = labels if sampler.exhaustive else A.labels_box(min(sampler.box, 2))
    small_pairs = [(a, b) for a in small for b in small]
    verify_hopf_axioms(Atw, small, rep, prefix="hopf.twisted", pair_samples=small_pairs)

    if A.is_grouplike_basis():
        rep.equal("hopf.collapse-product", "twist.cocommutative-collapse",
                  product(labels, labels), lambda ab: (Atw.mult(*ab), A.mult(*ab)),
                  at_labels(A, "product_g != product"))
        rep.equal("hopf.collapse-star", "twist.cocommutative-collapse", labels,
                  lambda a: (Atw.star(a), A.star(a)), at(A, "star_g != star"))

    _comodule_axioms(bundle.comodule, small, rep, "hopf.comodule")
    _comodule_axioms(world.comodule, small, rep, "hopf.comodule-twisted")


def _comodule_axioms(B, labels, rep, prefix):
    A = B.hopf

    # (Delta (x) id) delta = (id (x) delta) delta
    rep.equal(f"{prefix}.coassociative", "comodule.coassociativity", labels,
              lambda l: (
                  B.coact(l).apply(lambda ab: A.coproduct(ab[0]).map_keys(lambda x: (*x, ab[1]))),
                  B.coact(l).apply(lambda ab: B.coact(ab[1]).map_keys(lambda x: (ab[0], *x)))),
              at(B, "coaction not coassociative"))
    rep.equal(f"{prefix}.counital", "comodule.counit-law", labels,
              lambda l: (B.coact(l).apply(lambda ab: B.el(ab[1], A.counit(ab[0]))), B.el(l)),
              at(B, "counit collapse fails"))
    # a failed algebra-map check ends the axioms here, without star-hom
    if not rep.equal(f"{prefix}.algebra-map", "comodule.algebra-map",
                     product(labels[:6], labels[:6]),
                     lambda ab: (B.coact_elem(B.mult(*ab)), B.coact(ab[0]).apply2(
                         B.coact(ab[1]),
                         lambda x, y: A.mult(x[0], y[0]).tensor(B.mult(x[1], y[1])))),
                     at_labels(B, "coaction not an algebra map")):
        return
    rep.equal(f"{prefix}.star-hom", "comodule.star-homomorphism", labels,
              lambda l: (B.coact_elem(B.star(l)), B.coact(l).apply_conj(
                  lambda ab: A.star(ab[0]).tensor(B.star(ab[1])))),
              at(B, "coaction not a *-homomorphism"))


# -- cocycle suite -------------------------------------------------------------


def suite_cocycle(bundle, world, back, rep, sampler):
    A = bundle.hopf
    data = bundle.data
    verify_cocycle_identities(data, A, sampler.tuples(3), rep)
    verify_unitarity_suite(data, A, sampler.tuples(2), rep)

    labels = sampler.labels if sampler.exhaustive else A.labels_box(min(sampler.box, 2))
    # (a, b) for every product with a, then (a, None) for the maps of a
    cases = list(product(labels, [*labels, None]))

    def round_trip(H, H_back, maps):
        return lambda ab: tuple(K.mult(*ab) if ab[1] is not None else maps(K, ab[0])
                                for K in (H_back, H))

    def named(H, what, maps_what):
        return lambda ab: at_labels(H, f"{what} round trip fails")(ab) if ab[1] is not None \
            else at(H, f"{maps_what} round trip fails")(ab[0])

    # a failed Hopf round trip ends the suite, without the comodule round trip
    if not rep.equal("cocycle.hopf-roundtrip", "twist.inverse-deformation", cases,
                     round_trip(A, back.hopf, lambda K, a: (K.star(a), K.antipode(a))),
                     named(A, "product", "star/antipode")):
        return
    B = bundle.comodule
    rep.equal("cocycle.comodule-roundtrip", "twist.inverse-deformation", cases,
              round_trip(B, back.comodule, lambda K, a: K.star(a)),
              named(B, "comodule product", "comodule star"))


# -- bar functor suite ----------------------------------------------------------


def suite_barfunctor(bundle, world, back, rep, sampler):
    B = bundle.comodule
    data = bundle.data
    Btw = world.comodule
    # labelled module instruments: B as a module over itself, plus Omega^1 if present
    mods = [("B-self", CentralBasisModule(B, ["e"]))]
    if bundle.calculus is not None:
        mods.append(("O1", bundle.calculus.module(1)))
    bars = [ConjugateModule(E) for _, E in mods]

    for (label, E), Ebar in zip(mods, bars):
        rep.equal(f"bar.conj-involution[{label}]", "bar.conjugate-structure",
                  sampler.draws(12, elem(E)), lambda x: (unconj(E, conj_of(E, x)), x),
                  lambda x: f"conjugation not involutive on {E.describe(x)}")

        def bimodule_laws(xb):
            x, b = xb
            xbar, bstar = conj_of(E, x), B.star_elem(b)
            return ((Ebar.lmul(b, xbar), Ebar.rmul(xbar, b)),
                    (conj_of(E, E.rmul(x, bstar)), conj_of(E, E.lmul(bstar, x))))

        rep.equal(f"bar.bimodule-laws[{label}]", "bar.conjugate-structure",
                  sampler.draws(8, elem(E), el(B)), bimodule_laws,
                  ("b.(m bar) != (m b*)bar on a sample", "(m bar).b != (b* m)bar on a sample"))

    # each module below is built once, for every check that reads it
    E, F = mods[0][1], mods[-1][1]
    Ebar, Fbar = bars[0], bars[-1]
    T_unt = TensorModule(E, F)
    T_bars_unt = TensorModule(Fbar, Ebar)

    rep.equal("bar.upsilon-involutive", "bar.upsilon-coherence",
              sampler.draws(8, elem(E), elem(F)),
              lambda xy: (upsilon(T_unt, T_bars_unt, conj_of(T_unt, T_unt.pure(*xy))),
                          T_bars_unt.pure(conj_of(F, xy[1]), conj_of(E, xy[0]))),
              "Upsilon((m(x)n)bar) != nbar(x)mbar on a sample")

    Ebarbar = ConjugateModule(Ebar)
    # a non-real scalar multiple of the identity catches stray conjugations
    z = Cyc.root(E.scalar_order) if E.scalar_order > 2 else Cyc.rational(3, E.scalar_order)
    f_nat = Morphism(E, E, {i: E.el(i, z) for i in E.basis})
    fbar = bar_map(f_nat, E, E)
    barbar_f = bar_map(fbar, Ebar, Ebar)

    def bb_natural(xb):
        # left-linearity, then naturality: barbar(f) . bb = bb . f
        x, b = xb
        bb_x = bb_map(E, Ebar, x)
        return ((bb_map(E, Ebar, E.lmul(b, x)), barbar_f(bb_x)),
                (Ebarbar.lmul(b, bb_x), bb_map(E, Ebar, f_nat(x))))

    rep.equal("bar.bb-natural", "bar.double-conjugate", sampler.draws(8, elem(E), el(B)),
              bb_natural, ("bb is not left-linear on a sample",
                           "bb is not natural against a sampled morphism"))

    # twisted-world instruments
    GE = TwistedModule(E, data, Btw)
    GF = TwistedModule(F, data, Btw)
    bar_GE = ConjugateModule(GE)
    GEbar = TwistedModule(Ebar, data, Btw)
    T_tw = TensorModule(GE, GF)
    N = partial(conj_twist_iso, data, GE)

    def phi_inverse():
        # a generator: it draws u after checking t, so a failing t leaves
        # later samples as they were
        for t in (T_tw.pure(*xy) for xy in sampler.draws(10, elem(GE), elem(GF))):
            yield "phi^-1 . phi != id on a sample" \
                if phi_inv_map(data, T_tw, T_unt, phi_map(data, T_tw, T_unt, t)) != t else None
            u = T_unt.pure(*sampler.draw(elem(E), elem(F)))
            yield "phi . phi^-1 != id on a sample" \
                if phi_map(data, T_tw, T_unt, phi_inv_map(data, T_tw, T_unt, u)) != u else None

    rep.forall("phi.inverse", "twist.monoidal-isomorphism", phi_inverse(), outcome)

    idE = Morphism.identity(E)
    if bundle.calculus is not None and F is bundle.calculus.module(1):
        # the complex-structure operator is a genuine covariant bimodule map
        i_unit = Cyc.i(F.scalar_order)
        g_mor = Morphism(F, F, {
            i: F.el(i, i_unit if i == "w+" else -i_unit) for i in F.basis})
    else:
        g_mor = Morphism(F, F, {i: F.el(i, 2) for i in F.basis})

    rep.equal("phi.naturality", "twist.phi-naturality",
              (T_unt.pure(*xy) for xy in sampler.draws(6, elem(E), elem(F))),
              lambda u: (tensor_map_pair(T_tw, T_tw, idE, g_mor, phi_inv_map(data, T_tw, T_unt, u)),
                         phi_inv_map(data, T_tw, T_unt,
                                     tensor_map_pair(T_unt, T_unt, idE, g_mor, u))),
              "(Gf (x) Gg) phi^-1 != phi^-1 G(f (x) g) on a sample")

    T_idtw = cache(lambda: twist_tensor_morphism(Morphism.identity(T_unt), data, T_tw, T_tw))
    rep.equal("gamma.functorial", "twist.functoriality", T_tw.basis,
              lambda k: (T_idtw().table[k], T_tw.el(k)),
              lambda k: f"Gamma(id) != id at {T_tw.basis_name(k)}")

    rep.equal("conjiso.iso", "twist.conjugation-isomorphism",
              (conj_of(GE, x) for x in sampler.draws(10, elem(GE))),
              lambda xb: (conj_twist_iso_inv(data, GE, N(xb)), xb), "N^-1 . N != id on a sample")
    rep.equal("conjiso.bilinear", "twist.conjugation-isomorphism",
              ((conj_of(GE, x), b) for x, b in sampler.draws(8, elem(GE), el(Btw))),
              lambda xb_b: (N(bar_GE.lmul(xb_b[1], xb_b[0])), GEbar.lmul(xb_b[1], N(xb_b[0]))),
              "N not left B_g-linear on a sample")
    rep.equal("conjiso.covariant", "twist.conjugation-isomorphism",
              (conj_of(GE, x) for x in sampler.draws(8, elem(GE))),
              lambda xb: covariance_sides(N, bar_GE, GEbar, xb), "N not covariant on a sample")

    H = HomModule(E)
    f = H.from_b(sampler.draw(el(B)), ("dual", E.basis[0]))
    ev = hom_twist_iso(data, H, f)

    rep.equal("homiso.left-linear", "twist.hom-isomorphism",
              sampler.draws(8, elem(GE), el(Btw)),
              lambda vb: (ev(GE.lmul(vb[1], vb[0])), Btw.mult_elem(vb[1], ev(vb[0]))),
              "S(f) not left B_g-linear on a sample")

    # a fresh f for the bimodule laws
    GH = TwistedModule(H, data, Btw)
    f = H.from_b(sampler.draw(el(B)), ("dual", E.basis[0]))
    ev = hom_twist_iso(data, H, f)

    def hom_bilinear(bx):
        # the hom transport is itself a B_g-bimodule map:
        # S(b ._g f) = b ._g S(f) and S(f ._g b) = S(f) ._g b
        b, x = bx
        return (tuple(hom_twist_iso(data, H, bf)(x) for bf in (GH.lmul(b, f), GH.rmul(f, b))),
                (ev(GE.rmul(x, b)), Btw.mult_elem(ev(x), b)))

    rep.equal("homiso.bilinear", "twist.hom-isomorphism", sampler.draws(6, el(Btw), elem(GE)),
              hom_bilinear, ("S(b f) != b S(f) on a sample", "S(f b) != S(f) b on a sample"))

    # N_E . bar(Gamma(f)) = Gamma(fbar) . N_E for the morphism f of bb-natural;
    # bar(Gamma(f)) goes through the twisted conjugate structure
    fbar_tw = bar_map(f_nat, GE, GE)
    rep.equal("conjiso.natural", "twist.conjugation-isomorphism",
              (conj_of(GE, x) for x in sampler.draws(6, elem(GE))),
              lambda xb: (N(fbar_tw(xb)), fbar(N(xb))),
              "N is not natural against a sampled morphism")
    f = H.from_b(sampler.draw(el(B)), ("dual", E.basis[0]))

    formula = cache(lambda: hom_coact(H, f))
    rep.equal("hom.coaction-evaluation", "module.hom-coaction", E.basis,
              lambda i: (formula()[i], H.coact(f).apply(lambda k: hom_apply(
                  H, H.from_b(B.el(k[1]), k[2]), E.el(i)).map_keys(lambda b2: (k[0], b2)))),
              lambda i: f"hom coaction formula mismatch at basis {i}")

    # bar functor conditions
    GT = TwistedModule(T_unt, data, Btw)
    T_bars_tw = TensorModule(ConjugateModule(GF), bar_GE)
    T_gbar = TensorModule(TwistedModule(Fbar, data, Btw), GEbar)
    phi_inv_bar = bar_map(lambda v: phi_inv_map(data, T_tw, T_unt, v), GT, T_tw)

    def hexagon(t):
        xbar = conj_of(GT, t)
        # left route: (N_F (x) N_E) Upsilon_g (phi^-1)bar
        route1 = upsilon(T_tw, T_bars_tw, phi_inv_bar(xbar))
        route1 = tensor_map_pair(
            T_bars_tw, T_gbar, lambda v: conj_twist_iso(data, GF, v), N, route1)
        # right route: phi^-1 Gamma(Upsilon) N_{E(x)F}
        route2 = upsilon(T_unt, T_bars_unt, conj_twist_iso(data, GT, xbar))
        return route1, phi_inv_map(data, T_gbar, T_bars_unt, route2)

    rep.equal("bar.hexagon", "barfunctor.hexagon",
              (GT.from_b(b, (i, j))
               for b, i, j in sampler.draws(6, el(Btw), choice(E.basis), choice(F.basis))),
              hexagon, "bar-functor hexagon fails on a sample")

    # (N_E)bar: bar(bar(Gamma E)) -> bar(Gamma(Ebar)); Gamma(bb) shares the keys of bb
    n_bar = bar_map(N, bar_GE, GEbar)
    rep.equal("bar.bb-condition", "barfunctor.double-conjugate",
              sampler.draws(6, elem(GE)),
              lambda x: (bb_map(E, Ebar, x),
                         conj_twist_iso(data, GEbar, n_bar(bb_map(GE, bar_GE, x)))),
              "Gamma(bb) != N_bar . N bar . bb on a sample")

    if bundle.calculus is not None:
        cal = bundle.calculus
        cal_tw = world.calculus
        O1, Obar = F, Fbar    # the one-form instrument
        G1 = cal_tw.module(1)

        def star(w):
            return conj_of(O1, cal.star(w))

        star_bar = bar_map(star, O1, Obar)
        rep.equal("bar.star-object", "bar.star-object-law",
                  sampler.draws(6, elem(O1)), lambda w: (star_bar(star(w)), bb_map(O1, Obar, w)),
                  "starbar . star != bb on a one-form sample")
        rep.equal("bar.star-transport", "barfunctor.star-transport",
                  sampler.draws(8, elem(G1)),
                  lambda w: (conj_of(G1, cal_tw.star(w)), conj_twist_iso_inv(data, G1, star(w))),
                  "star_g != N^-1 . Gamma(star) on a one-form sample")

    # module round trip through gamma then gammabar
    GEback = TwistedModule(GE, world.data, back.comodule)
    rep.equal("module.roundtrip", "twist.inverse-deformation",
              product(sampler.labels[:5], E.basis),
              lambda k: (GEback.r_act(k[1], k[0]), E.r_act(k[1], k[0])),
              lambda k: f"module round trip fails at ({E.basis_name(k[1])},{B.label_name(k[0])})")


# -- calculus suite (includes complex structure, holomorphic, Kahler) -----------


def _calculus_core(cal, rep, sampler, prefix):
    B = cal.base
    zero = Vec(cal.scalar_order)

    def degree_0_and_1():
        # a generator: it draws the one-form after checking the function, so a
        # failing function (d- or wedge-corrupted) leaves later samples as they were
        for b in sampler.draws(12, el(B)):
            yield cal.from_b(b)
            yield sampler.draw(elem(cal.module(1)))

    rep.equal(f"{prefix}.d-squared", "calculus.d-squared", degree_0_and_1(),
              lambda f: (cal.d(cal.d(f)), zero),
              lambda f: f"d^2 != 0 on a degree-{cal.degree(f)} sample")

    def graded_leibniz(wf):
        w, f = wf
        return ((cal.d(cal.wedge(f, w)), cal.d(cal.wedge(w, f))),
                (cal.wedge(cal.d(f), w) + cal.wedge(f, cal.d(w)),
                 cal.wedge(cal.d(w), f) - cal.wedge(w, cal.d(f))))

    rep.equal(f"{prefix}.graded-leibniz", "calculus.graded-leibniz",
              ((w, cal.from_b(b)) for w, b in sampler.draws(10, elem(cal.module(1)), el(B))),
              graded_leibniz, ("Leibniz fails on a (0,1)-degree pair",
                               "graded Leibniz fails on a (1,0)-degree pair"))
    rep.equal(f"{prefix}.star-involution", "calculus.star-laws",
              (sampler.draw(elem(cal.module(deg))) for deg in (0, 1, 2) for _ in range(4)),
              lambda w: (cal.star(cal.star(w)), w),
              lambda w: f"star not involutive in degree {cal.degree(w)}")
    rep.equal(f"{prefix}.star-d-commute", "calculus.star-d-compatibility",
              (w for deg in (0, 1) for w in sampler.draws(8, elem(cal.module(deg)))),
              lambda w: (cal.star(cal.d(w)), cal.d(cal.star(w))),
              lambda w: f"(dw)* != d(w*) in degree {cal.degree(w)}")

    def star_antimultiplicative():
        # a generator: after a failure it goes on drawing for the remaining
        # degree pairs, and yields the last failing one; the samples of every
        # later check, and the recorded fault outputs, depend on those draws
        last = None
        for k, l in ((0, 1), (1, 1), (0, 2)):
            for _ in range(4):
                w, v = sampler.draw(elem(cal.module(k)), elem(cal.module(l)))
                sign = -1 if (k * l) % 2 else 1
                lhs = cal.star(cal.wedge(w, v))
                rhs = cal.wedge(cal.star(v), cal.star(w)).scale(sign)
                if lhs != rhs:
                    last = f"(w^v)* != (-1)^kl v*^w* at degrees ({k},{l})"
                    break
        yield last

    rep.forall(f"{prefix}.star-antimultiplicative", "calculus.star-laws",
               star_antimultiplicative(), outcome)

    rep.equal(f"{prefix}.wedge-associative", "calculus.associativity",
              sampler.draws(8, elem(cal.module(0)), elem(cal.module(1)), elem(cal.module(1))),
              lambda abc: (cal.wedge(cal.wedge(*abc[:2]), abc[2]),
                           cal.wedge(abc[0], cal.wedge(*abc[1:]))),
              "wedge associativity fails on a sampled triple")
    rep.equal(f"{prefix}.d-covariant", "calculus.covariance",
              sampler.draws(8, el(B)),
              lambda b: (cal.module(1).coact(cal.d(cal.from_b(b))), B.coact_elem(b).apply(
                  lambda ab: cal.d(cal.from_b(B.el(ab[1]))).map_keys(lambda bi: (ab[0], *bi)))),
              "d is not covariant on a sample")

    def generated_by_b_db():
        # every degree-1 basis form must be a Q(zeta)-combination of the
        # products m* d(m) and d(m) over the unit box (Maurer-Cartan
        # witnesses): one unknown per image, one row per key of an image or target
        images = []
        for m in cal.base.hopf.labels_box(1):
            dm = cal.d(cal.from_b(B.el(m)))
            images.append(dm)
            images.append(cal.wedge(cal.from_b(B.star(m)), dm))
        targets = {t: cal.module(1).el(t) for t in cal.module(1).basis}
        keys = sorted({k for v in images + list(targets.values()) for k in v.terms}, key=str)
        zero = Cyc.zero(cal.scalar_order)
        rows = [[img.terms.get(key, zero) for img in images] for key in keys]
        for target, want in targets.items():
            sol, _, _ = gauss_solve(rows, [want.terms.get(key, zero) for key in keys])
            yield f"basis form {target} not generated by B.dB over the box" \
                if sol is None else None

    rep.forall(f"{prefix}.generated-by-b-db", "calculus.generation",
               generated_by_b_db(), outcome)


def suite_calculus(bundle, world, back, rep, sampler):
    cal, cal_tw, cal_back = bundle.calculus, world.calculus, back.calculus
    cs = bundle.complex_structure
    cs_tw = world.complex_structure
    data = bundle.data

    _calculus_core(cal, rep, sampler, "calc.base")
    _calculus_core(cal_tw, rep, sampler, "calc.twisted")

    rep.equal("calc.twisted.d-is-functor-image", "twist.calculus",
              sampler.draws(10, elem(cal_tw.module(0), cal_tw.module(1))),
              lambda f: (cal_tw.d(f), cal.d(f)), "d_g differs from Gamma(d) on a sample")

    def star_formula(f):
        # star_g(b w) must match Vbar(w-weight*) of the coaction formula
        A = bundle.hopf
        mod1 = cal.module(1)
        lhs = cal_tw.star(f)

        def term(k):
            # a (x) b e_i  ->  Vbar(a*) (b e_i)*, antilinear in the coaction
            a, b, i = k
            starred = cal.star(mod1.from_b(bundle.comodule.el(b), i))
            return starred.scale(A.star(a).evaluate(data.Vbar))

        return lhs, mod1.coact(f).apply_conj(term)

    rep.equal("calc.twisted.star-formula", "twist.comodule-star",
              sampler.draws(10, elem(cal_tw.module(1))), star_formula,
              "twisted star does not match its coaction formula")

    rep.equal("calc.roundtrip", "twist.inverse-deformation",
              sampler.draws(8, elem(cal.module(1)), elem(cal.module(1))),
              lambda fg: tuple((c.wedge(*fg), c.star(fg[0]), c.d(fg[0])) for c in (cal_back, cal)),
              tuple(f"{what} round trip fails on a sample" for what in ("wedge", "star", "d")))

    for tag, c_s, c_al in (("base", cs, cal), ("twisted", cs_tw, cal_tw)):
        def projections(f):
            degree = c_al.degree(f)
            total = Vec(c_al.scalar_order)
            for (p, q), comp in c_s.components(f).items():
                if p + q != degree:
                    return f"bigrade ({p},{q}) appears in degree {degree}"
                total = total + comp
            return "bigrade projections do not sum to the identity" if total != f else None

        rep.forall(f"cs.{tag}.projections", "complex.bigrading",
                   (sampler.draw(elem(c_al.module(deg))) for deg in (1, 2) for _ in range(4)),
                   projections)

        def star_swaps(f):
            for (p, q), piece in c_s.components(f).items():
                for (b, i), c in c_al.star(piece).terms.items():
                    if not c.is_zero() and c_s.bigrade[i] != (q, p):
                        return f"star leaves ({p},{q}) outside ({q},{p})"
            return None

        rep.forall(f"cs.{tag}.star-swaps", "complex.star-swap",
                   sampler.draws(8, elem(c_al.module(1))), star_swaps)

        rep.equal(f"cs.{tag}.d-splits", "complex.d-decomposition",
                  sampler.draws(8, elem(c_al.module(1))),
                  lambda f: (c_al.d(f), c_s.del_(f) + c_s.delbar(f)),
                  "d != del + delbar on a sample")

        rep.equal(f"cs.{tag}.dolbeault-squares", "complex.dolbeault-relations",
                  (c_al.from_b(b) for b in sampler.draws(8, el(c_al.base))),
                  lambda b: ((c_s.del_(c_s.del_(b)), c_s.delbar(c_s.delbar(b)),
                              c_s.del_(c_s.delbar(b)) + c_s.delbar(c_s.del_(b))),
                             (Vec(c_al.scalar_order),) * 3),
                  ("del^2 or delbar^2 != 0 on a sample",) * 2
                  + ("del delbar + delbar del != 0 on a sample",))

    for tag, c_s in (("base", cs), ("twisted", cs_tw)):
        def factor_invertible():
            # a generator: the solve's NotFactorizable is its witness
            try:
                theta, _ = factorization_inverse(c_s, (0, 1), (1, 0))
            except NotFactorizable as exc:
                yield str(exc)
                return
            c_al = c_s.cal
            for f in sampler.draws(6, elem(c_al.module(2))):
                f11 = c_s.proj(f, 1, 1)
                back = Vec(c_al.scalar_order)
                for (b, (i, j)), c in theta(f11).terms.items():
                    back = back + c_al.wedge(c_al.module(1).from_b(c_al.base.el(b), i),
                                             c_al.module(1).el(j)).scale(c)
                yield "wedge . theta != id on a (1,1) sample" if back != f11 else None

        rep.forall(f"factor.{tag}.invertible", "complex.factorizability",
                   factor_invertible(), outcome)

    holos = (("10", bundle.holo_10, world.holo_10),
             ("01", bundle.holo_01, world.holo_01))
    for tag, h, h_tw in holos:
        for wtag, hh in (("base", h), ("twisted", h_tw)):
            mod = hh.module

            def holo_leibniz(bi):
                b, i = bi
                lhs = hh.delbar_conn(mod.lmul(b, mod.el(i)))
                return lhs, hh.tensor_01.lmul(b, hh.delbar_conn(mod.el(i))) + \
                    hh.tensor_01.pure(hh.cs.delbar_b(b), mod.el(i))

            rep.equal(f"holo.{wtag}.{tag}.leibniz", "holomorphic.leibniz",
                      sampler.draws(8, el(mod.base), choice(mod.basis)),
                      holo_leibniz, "delbar-connection Leibniz fails on a sample")
            rep.equal(f"holo.{wtag}.{tag}.curvature", "holomorphic.curvature-zero", mod.basis,
                      lambda i: (hh.curvature(i), mod.zero()),
                      lambda i: f"holomorphic curvature nonzero at basis {i}")

    # the transported operator (delbar (x) id - id ^ delbar_E) agrees
    # through phi on samples
    h, h_tw = bundle.holo_10, world.holo_10
    T_op, T_op_tw = _op_target(h), _op_target(h_tw)

    def holo_transport(w_lab):
        w, lab = w_lab
        e = h.module.from_b(cal.base.el(lab), h.module.basis[0])
        u = h.tensor_01.pure(cs.proj(w, 0, 1), e)
        moved = phi_inv_map(data, h_tw.tensor_01, h.tensor_01, u)
        rhs = phi_map(data, T_op_tw, T_op, h_tw.operator(moved))
        return h.operator(u), rhs

    rep.equal("holo.twist-intermediate", "twist.holomorphic-transport",
              sampler.draws(6, elem(cal.module(1)), LABEL),
              holo_transport, "holomorphic transport identity fails on a sample")

    # Kahler layer
    for tag, kappa, c_al in (("base", bundle.kappa, cal), ("twisted", world.kappa, cal_tw)):
        rep.equal(f"kahler.{tag}.central", "kahler.centrality",
                  sampler.draws(8, elem(c_al.module(0))),
                  lambda f: (c_al.wedge(kappa, f), c_al.wedge(f, kappa)),
                  "kappa not central on a sample")
        rep.equal(f"kahler.{tag}.real", "kahler.reality", [kappa],
                  lambda k: (c_al.star(k), k), "kappa* != kappa")

        O2 = c_al.module(2)
        rep.equal(f"kahler.{tag}.coinvariant", "kahler.coinvariance", [kappa],
                  lambda k: (O2.coact(k), unit_coaction(O2, k)), "kappa not coinvariant")
        rep.equal(f"kahler.{tag}.closed", "kahler.closedness", [kappa],
                  lambda k: (c_al.d(k), O2.zero()), "d kappa != 0")
        rep.forall(f"kahler.{tag}.lefschetz", "kahler.lefschetz-bijectivity", [kappa],
                   lambda k: "L: Omega^0 -> Omega^2 is not bijective"
                   if not lefschetz_bijective(c_al, k) else None)


def _op_target(h):
    """Tensor module holding the image of the transported operator."""
    cs, mod = h.cs, h.module
    return TensorModule(CentralBasisModule(cs.cal.base, cs.cal.module(2).basis), mod)


# -- metric suite ---------------------------------------------------------------


def _metric_core(metric, rep, sampler, prefix):
    cal = metric.cal
    B = cal.base
    mod = metric.module

    rep.equal(f"{prefix}.snake", "metric.duality-snake", mod.basis,
              lambda name: ((metric.snake_left(name), metric.snake_right(name)),
                            (mod.el(name),) * 2),
              (lambda name: f"((w, ) (x) id) g != w at {name}",
               lambda name: f"(id (x) ( , w)) g != w at {name}"))

    T = metric.tensor
    rep.equal(f"{prefix}.central", "metric.centrality", B.generators(),
              lambda lab: (T.lmul(B.el(lab), metric.g), T.rmul(metric.g, B.el(lab))),
              at(B, "b g != g b"))
    rep.equal(f"{prefix}.coinvariant", "metric.coinvariance", [metric.g],
              lambda g: (T.coact(g), unit_coaction(T, g)), "delta(g) != 1 (x) g")
    rep.equal(f"{prefix}.pair-covariant", "metric.pairing-covariance",
              (T.pure(*xy) for xy in sampler.draws(8, elem(mod), elem(mod))),
              lambda t: (B.coact_elem(metric.pair_apply(t)), T.coact(t).apply(
                  lambda x: metric.pair_apply(T.from_b(B.el(x[1]), x[2])).map_keys(
                      lambda b2: (x[0], b2)))),
              "pairing is not covariant on a sample")
    rep.equal(f"{prefix}.real", "metric.reality", [metric],
              lambda m: (m.dagger(m.g), m.g), "flip(* (x) *) g != g")


def suite_metric(bundle, world, back, rep, sampler):
    data = bundle.data
    metric, conn = bundle.metric, bundle.connection
    metric_tw, conn_tw = world.metric, world.connection
    cal, cal_tw = bundle.calculus, world.calculus

    _metric_core(metric, rep, sampler, "metric.base")
    _metric_core(metric_tw, rep, sampler, "metric.twisted")

    rep.equal("metric.twist-g-phi", "twist.metric", [metric.g],
              lambda g: (metric_tw.g, phi_inv_map(data, metric_tw.tensor, metric.tensor, g)),
              "g_g != phi^-1(g)")

    B, A = bundle.comodule, bundle.hopf
    O1 = cal.module(1)
    T_unt, T_tw = metric.tensor, metric_tw.tensor

    def dagger_identity(we):
        # dagger_g(phi^-1(w (x) e)) = phi^-1(e*_(0) (x) w*_(0)) Vbar(e*_(-1) w*_(-1))
        w, e = we
        lhs = metric_tw.dagger(phi_inv_map(data, T_tw, T_unt, T_unt.pure(w, e)))
        ws = cal.star(w)
        es = cal.star(e)

        def term(x, y):
            (a1, b1, i1), (a2, b2, i2) = x, y
            piece = phi_inv_map(
                data, T_tw, T_unt, T_unt.pure(O1.from_b(B.el(b1), i1), O1.from_b(B.el(b2), i2)))
            return piece.scale(A.mult(a1, a2).evaluate(data.Vbar))

        return lhs, O1.coact(es).apply2(O1.coact(ws), term)

    rep.equal("metric.dagger-identity", "twist.reality-transport",
              sampler.draws(8, elem(O1), elem(O1)), dagger_identity,
              "twisted-dagger transport identity fails on a sample")

    # g at None, then the pairing at each key
    rep.equal("metric.roundtrip", "twist.inverse-deformation", [None, *metric.pairing_table],
              lambda k: (back.metric.g, metric.g) if k is None
              else (back.metric.pairing_table[k], metric.pairing_table[k]),
              lambda k: f"pairing round trip differs at {k}" if k is not None
              else "g round trip differs")

    for tag, c, m, c_al in (("base", conn, metric, cal), ("twisted", conn_tw, metric_tw, cal_tw)):
        B = c_al.base
        rep.equal(f"lc.{tag}.leibniz", "connection.left-leibniz",
                  sampler.draws(8, el(B), elem(c.module)),
                  lambda be: (c.apply(c.module.lmul(*be)), c.tensor.lmul(be[0], c.apply(be[1]))
                              + c.tensor.pure(c_al.d(c_al.from_b(be[0])), be[1])),
                  "left Leibniz fails on a sample")
        rep.equal(f"lc.{tag}.bimodule", "connection.sigma-leibniz",
                  sampler.draws(8, el(B), elem(c.module)),
                  lambda be: (c.apply(c.module.rmul(be[1], be[0])),
                              c.tensor.rmul(c.apply(be[1]), be[0])
                              + c.sigma(c.sigma.src.pure(be[1], c_al.d(c_al.from_b(be[0]))))),
                  "sigma-twisted right Leibniz fails on a sample")

        zero = Vec(c_al.scalar_order)
        # a basis sweep of (label, key), then draws as (None, e), in one lazy chain
        rep.equal(f"lc.{tag}.sigma-morphism", "connection.sigma-bimodule-map",
                  chain(product((B.generators() or [])[:4], c.sigma.src.basis),
                        ((None, e) for e in sampler.draws(6, elem(c.sigma.src)))),
                  lambda le: (right_linear_defect(c.sigma, *le), zero) if le[0] is not None
                  else covariance_sides(c.sigma, c.sigma.src, c.sigma.dst, le[1]),
                  lambda le: f"sigma not right-linear at ({le[1]},{B.label_name(le[0])})"
                  if le[0] is not None else "sigma not covariant on a sample")
        rep.equal(f"lc.{tag}.covariant", "connection.covariance",
                  sampler.draws(8, elem(c.module)),
                  lambda e: covariance_sides(c.apply, c.module, c.tensor, e),
                  "connection is not covariant on a sample")

        # a basis sweep of (i, e_i), then draws as (None, e), in one lazy chain
        rep.equal(f"lc.{tag}.torsion-zero", "levi-civita.torsionless",
                  chain(((i, c.module.el(i)) for i in c.module.basis),
                        ((None, e) for e in sampler.draws(8, elem(c.module)))),
                  lambda ie: (c.torsion(ie[1]), zero),
                  lambda ie: f"torsion nonzero at basis {ie[0]}" if ie[0] is not None
                  else "torsion nonzero on a sample")
        rep.equal(f"lc.{tag}.metric-compat", "levi-civita.metric-compatibility", [m],
                  lambda m: (c.metric_compat(m), m.tensor.zero()), "nabla g != 0")

    rep.equal("lc.roundtrip", "twist.inverse-deformation", conn.module.basis,
              lambda k: (back.connection.table[k], conn.table[k]),
              lambda k: f"connection round trip differs at {k}")


# -- hermitian suite ---------------------------------------------------------------


def suite_hermitian(bundle, world, back, rep, sampler):
    data = bundle.data
    cal, cal_tw = bundle.calculus, world.calculus
    herm, herm_tw = bundle.hermitian, world.hermitian
    B = bundle.comodule

    for tag, h, c_al in (("base", herm, cal), ("twisted", herm_tw, cal_tw)):
        rep.forall(f"herm.{tag}.invertible", "hermitian.isomorphism", [h],
                   lambda h: "H table is not invertible" if not h.is_invertible() else None)

        rep.equal(f"herm.{tag}.symmetry", "hermitian.conjugate-symmetry",
                  sampler.draws(10, elem(h.module), elem(h.module)),
                  lambda xy: (c_al.base.star_elem(h.pair(xy[1], conj_of(h.module, xy[0]))),
                              h.pair(xy[0], conj_of(h.module, xy[1]))),
                  "<y,xbar>* != <x,ybar> on a sample")

        TXY = TensorModule(h.module, h.ebar)

        def covariant(x_ybar):
            x, ybar = x_ybar
            lhs = c_al.base.coact_elem(h.pair(x, ybar))

            def term(k):
                # a (x) b (e_i (x) ybar_j)  ->  a (x) <b e_i, ybar_j>
                a, b, (i, j) = k
                inner = h.pair(h.module.from_b(c_al.base.el(b), i), h.ebar.el(j))
                return inner.map_keys(lambda b2: (a, b2))

            return lhs, TXY.coact(TXY.pure(x, ybar)).apply(term)

        rep.equal(f"herm.{tag}.covariant", "hermitian.covariance",
                  ((x, conj_of(h.module, y))
                   for x, y in sampler.draws(6, elem(h.module), elem(h.module))),
                  covariant, "< , > is not covariant on a sample")

    O1 = cal.module(1)

    rep.equal("herm.pairing-from-metric", "hermitian.metric-correspondence",
              sampler.draws(10, elem(O1), elem(O1)),
              lambda we: (herm.pair(we[0], conj_of(O1, we[1])), bundle.metric.pair_apply(
                  bundle.metric.tensor.pure(we[0], cal.star(we[1])))),
              "<w,ebar> != (w, e*) on a sample")

    def diamond_split(herm):
        try:
            h1, h2 = split_hermitian(herm, bundle.complex_structure)
        except DiamondViolation as exc:
            return str(exc)
        return None if h1.is_invertible() and h2.is_invertible() \
            else "a split block is not invertible"

    rep.forall("herm.diamond-split", "hermitian.diamond-splitting", [herm], diamond_split)

    routed = cache(lambda: hermitian_from_real(world.metric).table)
    rep.equal("herm.metric-route-agree", "twist.hermitian-metric-route", herm_tw.table,
              lambda k: (herm_tw.table[k], routed()[k]), lambda k: f"H_(g_g) != (H_g)_g at {k}")

    A = bundle.hopf
    G1 = cal_tw.module(1)

    def relation(xy):
        # <x, ybar>_g = Vbar(y_(-2)*) gamma(x_(-1) (x) y_(-1)*) <x_(0), (y_(0))bar>
        x, y = xy
        lhs = herm_tw.pair(x, conj_of(G1, y))

        def term(yk, xk):
            ((a1, a2), b, i), (ax, bx, ix) = yk, xk
            scal = A.star(a1).evaluate(data.Vbar) * \
                A.star(a2).evaluate(lambda s: data.gamma(ax, s))
            return herm.pair(O1.from_b(B.el(bx), ix),
                             conj_of(O1, O1.from_b(B.el(b), i))).scale(scal)

        # antilinear in y, linear in x
        return lhs, O1.coact_iter(y, 2).apply_conj(
            lambda yk: O1.coact(x).apply(lambda xk: term(yk, xk)))

    res = rep.equal("herm.relation-sampled", "twist.hermitian-pairing-relation",
                    (sampler.draw(elem(G1), elem(G1)) for _ in range(max(sampler.n, 100))),
                    relation, "twisted pairing relation fails on a sample")
    res.sample_spec += f";pairs={res.instances}"

    rep.equal("herm.roundtrip", "twist.inverse-deformation", herm.table,
              lambda k: (back.hermitian.table[k], herm.table[k]),
              lambda k: f"Hermitian round trip differs at {k}")

    @cache
    def rebuilt():
        # real -> Hermitian -> real: (w_i, w_j) = <w_i, (w_j*)bar> since ** = id
        return {(i, j): herm.pair(O1.el(i), conj_of(O1, cal.star(O1.el(j))))
                for (i, j) in bundle.metric.pairing_table}

    pairing = bundle.metric.pairing_table
    rep.equal("herm.correspondence-square", "hermitian.correspondence", pairing,
              lambda k: (rebuilt()[k], pairing[k]),
              lambda k: f"metric->Hermitian->metric differs at {k}")


# -- chern suite ---------------------------------------------------------------


def _chern_solve(rep, check_id, anchor, bundle, tag):
    """Check the bundle's Chern connection of bigrade `tag` as one instance.

    Returns the connection, also when it then fails the Chern conditions, or
    None when the solve itself failed (the bundle keeps the error, so asking
    again solves nothing).
    """
    holo, h = bundle.chern_system(tag)

    def defect(_):
        try:
            conn = bundle.chern(tag)
        except (ChernNoSolution, ChernNotUnique) as exc:
            return str(exc)
        return chern_conditions_hold(holo, h, conn)[1]

    rep.forall(check_id, anchor, [holo], defect)
    try:
        return bundle.chern(tag)
    except (ChernNoSolution, ChernNotUnique):
        return None


def suite_chern(bundle, world, back, rep, sampler):
    data = bundle.data
    cal, cal_tw = bundle.calculus, world.calculus

    solved = {}
    for tag in CHERN_TAGS:
        conn = _chern_solve(rep, f"chern.base.{tag}.solve", "chern.existence-uniqueness",
                            bundle, tag)
        if conn is None:
            continue
        solved[tag] = conn

        unboxed = cache(lambda: chern_solve(*bundle.chern_system(tag), coeff_box=0).table)
        rep.equal(f"chern.base.{tag}.box-independent", "chern.search-space", conn.module.basis,
                  lambda k: (conn.table[k], unboxed()[k]),
                  lambda k: f"solution depends on the coefficient box at {k}")
        rep.equal(f"chern.base.{tag}.covariant", "chern.covariance",
                  sampler.draws(6, elem(conn.module)),
                  lambda e: covariance_sides(conn.apply, conn.module, conn.tensor, e),
                  "Chern connection is not covariant on a sample")

    # nabla = nabla_Ch,(1,0) (+) nabla_Ch,(0,1) on the basis of Omega^1
    if "10" in solved and "01" in solved:
        rep.equal("chern.untwisted-hypothesis", "main.untwisted-direct-sum",
                  ((conn, k) for conn in solved.values() for k in conn.module.basis),
                  lambda ck: (ck[0].table[ck[1]], bundle.connection.table[ck[1]]),
                  lambda ck: f"LC does not restrict to the Chern connection at {ck[1]}")
    else:
        rep.add_skipped("chern.untwisted-hypothesis", "main.untwisted-direct-sum",
                        "untwisted Chern connections unavailable")

    # conjugate right connection checks
    ebar, tens_bar, nabla_tilde = conj_connection(bundle.connection)
    B = bundle.comodule
    O1 = cal.module(1)

    def right_leibniz(xb):
        x, b = xb
        xbar = conj_of(O1, x)
        return nabla_tilde(ebar.rmul(xbar, b)), tens_bar.rmul(nabla_tilde(xbar), b) + \
            tens_bar.pure(xbar, cal.d(cal.from_b(b)))

    rep.equal("conj.right-leibniz", "connection.conjugate-right",
              sampler.draws(8, elem(O1), el(B)),
              right_leibniz, "right Leibniz fails for the conjugate connection")

    # tilde(nabla_g) = (N^-1 (x) id) phi^-1 Gamma(tilde nabla) N on samples
    # the connections live on Omega^1, so ebar is bar(O1) and tens_bar is ebar (x) O1
    G1 = cal_tw.module(1)
    _, T_bar_tw, nabla_tilde_tw = conj_connection(world.connection)
    T_mixed_tw = TensorModule(TwistedModule(ebar, data, world.comodule), G1)

    def twist_commutes(xbar):
        lhs = nabla_tilde_tw(xbar)
        step = conj_twist_iso(data, G1, xbar)
        step = nabla_tilde(step)          # Gamma(tilde nabla), keys shared
        step = phi_inv_map(data, T_mixed_tw, tens_bar, step)
        return lhs, tensor_map_pair(
            T_mixed_tw, T_bar_tw, lambda v: conj_twist_iso_inv(data, G1, v), lambda v: v, step)

    rep.equal("conj.twist-commutes", "twist.conjugate-connection",
              (conj_of(G1, x) for x in sampler.draws(6, elem(G1))), twist_commutes,
              "conjugate-connection twist identity fails on a sample")

    for tag in CHERN_TAGS:
        conn_tw = _chern_solve(rep, f"chern.twisted.{tag}.solve", "chern.twisted-existence",
                               world, tag)
        if conn_tw is None or tag not in solved:
            continue

        moved = cache(lambda: twist_connection(
            solved[tag], data, cal_tw, module_tw=conn_tw.module).table)
        rep.equal(f"chern.twisted.{tag}.equals-twist", "chern.twist-transport",
                  conn_tw.module.basis, lambda k: (conn_tw.table[k], moved()[k]),
                  lambda k: f"twisted Chern != phi^-1 Gamma(Chern) at {k}")


# -- main suite ---------------------------------------------------------------


def suite_main(bundle, world, back, rep, sampler):
    cal_tw = world.calculus
    conn_tw = world.connection
    cs_tw = world.complex_structure
    O1tw = cal_tw.module(1)
    try:
        ch10, ch01 = world.chern("10"), world.chern("01")
    except (ChernNoSolution, ChernNotUnique) as exc:
        # the solver's error is the one witness
        rep.forall("main.direct-sum-basis", "main.twisted-direct-sum", [exc], str)
        return

    def direct_sum_apply(v):
        # each basis form goes to the Chern connection of its bigrade
        return v.apply(lambda bi: (ch10 if cs_tw.bigrade[bi[1]] == (1, 0) else ch01).apply(
            Vec.single(cal_tw.scalar_order, bi)))

    rep.equal("main.direct-sum-basis", "main.twisted-direct-sum", O1tw.basis,
              lambda i: (conn_tw.table[i], direct_sum_apply(O1tw.el(i))),
              lambda i: f"nabla_g != chern (+) chern at basis {i}")
    res = rep.equal("main.direct-sum-samples", "main.twisted-direct-sum",
                    sampler.draws(sampler.n, elem(O1tw)),
                    lambda e: (conn_tw.apply(e), direct_sum_apply(e)),
                    lambda e: f"direct sum fails on sample {O1tw.describe(e)}")
    res.sample_spec += f";monomials={res.instances}"

    lc_back = back.connection
    rep.equal("main.lc-uniqueness-roundtrip", "main.uniqueness-witness", lc_back.module.basis,
              lambda k: (lc_back.table[k], bundle.connection.table[k]),
              lambda k: f"gammabar round trip does not recover the LC connection at {k}")


# -- dispatcher ---------------------------------------------------------------


# name -> (suite, the id it skips on a model with no calculus), in `all` order
SUITES = {
    "hopf": (suite_hopf, None),
    "cocycle": (suite_cocycle, None),
    "barfunctor": (suite_barfunctor, None),
    "calculus": (suite_calculus, "calc.base"),
    "metric": (suite_metric, "metric.base"),
    "hermitian": (suite_hermitian, "herm.base"),
    "chern": (suite_chern, "chern.base"),
    "main": (suite_main, "main.direct-sum"),
}


def run_suite(bundle, suite, rep, box=None, samples=None, seed=None):
    """Run one suite, or `all`, on the bundle.

    The bundle is twisted once and untwisted once here; every suite reads
    the twisted world and the round trip back from that one pair.
    """
    sampler = Sampler(bundle, box=box, samples=samples, seed=seed)
    rep.meta.setdefault("sample_spec", sampler.spec())
    rep.meta.setdefault("exhaustive", sampler.exhaustive)
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    world = twist_world(bundle)
    back = twist_world(world)
    for name in SUITES if suite == "all" else (suite,):
        run, skip_id = SUITES[name]
        if skip_id and bundle.calculus is None:
            rep.add_skipped(skip_id, "plumbing", "model has no calculus")
        else:
            run(bundle, world, back, rep, sampler)
    return rep
