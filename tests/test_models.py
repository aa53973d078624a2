"""Model bundles: determinism, degenerate parameters, correspondence loops."""

import pytest

from cotwist.emit import emit_json, structure_tables
from cotwist.hopf import GroupAlgebra
from cotwist.models import (
    MAX_BOX_LABELS, MAX_SAMPLES, ModelBundle, build_model, check_sampling, classical_torus,
    finite_bicharacter, fun_group, nc_torus, twist_world)
from cotwist.report import Report
from cotwist.suites import run_suite


def emit(b):
    return emit_json(structure_tables(b))


def test_determinism_bit_identical():
    a = emit(twist_world(nc_torus(1, 3)))
    b = emit(twist_world(nc_torus(1, 3)))
    assert a == b


def test_nc_torus_p0_equals_classical():
    flat = nc_torus(0, 3)
    classical = classical_torus(order=flat.hopf.scalar_order)
    assert emit(flat) == emit(classical)
    assert emit(twist_world(flat)) == emit(classical)


def test_chern_is_solved_once_per_bundle():
    b = classical_torus(box=1, samples=4, seed=7)
    assert b.chern("10") is b.chern("10")
    # a copy with the same fields is a new bundle with its own solutions
    copy = b.replace()
    assert copy is not b
    assert {k: v for k, v in vars(copy).items() if k != "_chern_outcome"} == \
        {k: v for k, v in vars(b).items() if k != "_chern_outcome"}
    assert copy.chern("10") is not b.chern("10")
    assert copy.chern("10") is copy.chern("10")


def test_bundle_fields_are_checked():
    b = fun_group("s3")
    fields = dict(name="x", hopf=b.hopf, comodule=b.comodule, data=b.data)
    assert ModelBundle(**fields).box == 4
    with pytest.raises(TypeError):
        ModelBundle(**fields, colour="red")
    with pytest.raises(TypeError):
        b.replace(colour="red")
    for bad in ({"box": -1}, {"samples": -1}):
        with pytest.raises(ValueError):
            ModelBundle(**fields, **bad)
        with pytest.raises(ValueError):
            b.replace(**bad)


def test_twisted_world_shares_the_base_functionals():
    # the twisted cocycle is gammabar on the same labels, so its pair values
    # come from the base caches rather than from fresh functionals
    b = nc_torus(1, 5, box=1, samples=4)
    world = twist_world(b)
    assert world.data.gamma is b.data.gamma_bar
    assert world.data.gamma_bar is b.data.gamma
    assert twist_world(world).data.gamma is b.data.gamma


def test_torus_differential_is_memoised_per_label():
    for bundle in (nc_torus(1, 3), twist_world(nc_torus(1, 3))):
        d = bundle.calculus.d_base
        for label in [(0, 0), (1, -2), (3, 1)]:
            assert d(label) is d(label) and d(label) == d(label).pruned()


def test_nc_torus_reduces_fraction():
    assert nc_torus(2, 6).hopf.scalar_order == nc_torus(1, 3).hopf.scalar_order


def test_invalid_parameters():
    with pytest.raises(ValueError):
        nc_torus(1, 0)
    with pytest.raises(ValueError):
        fun_group("z17")
    with pytest.raises(ValueError):
        build_model("nonsense")


def test_a_box_on_an_infinite_basis_is_bounded_by_its_label_count():
    # (2 box + 1)^2 labels on the torus: box 15 lists 961, box 16 lists 1089
    torus = GroupAlgebra(2)
    assert torus.box_size(15) == len(torus.labels_box(15)) <= MAX_BOX_LABELS
    check_sampling(torus, 15, 0)
    for box in (16, 99999999999):
        with pytest.raises(ValueError, match="labels"):
            check_sampling(torus, box, 0)
    # a finite basis lists its labels whatever the box
    check_sampling(GroupAlgebra(0, (40, 40)), 99999999999, 0)


def test_the_sample_count_is_bounded():
    # Sampler.tuples lists every sample up front, so 10^8 ran out of memory
    torus = GroupAlgebra(2)
    check_sampling(torus, 2, MAX_SAMPLES)
    for samples in (MAX_SAMPLES + 1, 100_000_000):
        with pytest.raises(ValueError, match=f"samples must be <= {MAX_SAMPLES}"):
            check_sampling(torus, 2, samples)
    with pytest.raises(ValueError, match="samples"):
        nc_torus(1, 3, samples=MAX_SAMPLES + 1)


@pytest.mark.parametrize("build", [
    classical_torus, lambda: nc_torus(1, 3), lambda: finite_bicharacter(3, "upper"),
    lambda: fun_group("s3"),
], ids=["classical_torus", "nc_torus-1-3", "finite_bicharacter-3-upper", "fun_group-s3"])
def test_twist_roundtrip_emission(build):
    b = build()
    assert emit(twist_world(twist_world(b))) == emit(b)


def test_twisted_commutation_in_emission():
    import json
    from cotwist.cyclotomic import Cyc, format_scalar
    b = nc_torus(1, 3)
    world = twist_world(b)
    doc = json.loads(emit(world))
    xy = doc["product"]["u(1,0)|u(0,1)"]
    yx = doc["product"]["u(0,1)|u(1,0)"]
    assert xy == [{"coeff": format_scalar(Cyc.root(3, 2).embed(12)),
                   "monomial": "u(1,1)"}]
    assert yx == [{"coeff": format_scalar(Cyc.root(3, 1).embed(12)),
                   "monomial": "u(1,1)"}]


CORRESPONDENCE_CHECKS = ("metric.roundtrip", "herm.metric-route-agree", "herm.roundtrip",
                         "herm.correspondence-square")


def correspondence_statuses(bundle):
    """The statuses of the four metric/Hermitian bijection checks."""
    rep = Report()
    for suite in ("metric", "hermitian"):
        run_suite(bundle, suite, rep, box=2, samples=8)
    return {c.check_id: c.status for c in rep.checks if c.check_id in CORRESPONDENCE_CHECKS}


def test_correspondence_roundtrips_pass():
    assert correspondence_statuses(nc_torus(1, 3)) == dict.fromkeys(CORRESPONDENCE_CHECKS, "pass")


def test_correspondence_roundtrips_catch_fault():
    from cotwist.faults import FAULTS
    fault = next(f for f in FAULTS if f.name == "pairing-corrupted")
    statuses = correspondence_statuses(fault.build())
    assert statuses["herm.correspondence-square"] == "fail"
    assert statuses["herm.metric-route-agree"] == "fail"


def test_finite_models_have_no_geometry():
    b = finite_bicharacter(5)
    assert b.calculus is None
    assert not b.is_geometric()
    assert twist_world(b).hopf is not None
    g = fun_group("s3")
    labels = g.hopf.finite_labels()
    for a in labels:
        for b in labels:
            assert g.data.gamma(a, b) == g.hopf.counit(a) * g.hopf.counit(b)
