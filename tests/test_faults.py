"""Every documented perturbation is caught by its targeted suite, with a
witness, and changes exactly one table entry of a fresh model."""

from functools import reduce

import pytest

from cotwist import faults
from cotwist.faults import FAULTS
from cotwist.report import Report
from cotwist.suites import run_suite

ENTRY_FAULTS = [f for f in FAULTS if getattr(f.build, "func", None) is faults._entry]
COCYCLE_FAULTS = [f for f in FAULTS if getattr(f.build, "func", None) is faults._cocycle]


@pytest.mark.parametrize("fault", FAULTS, ids=[f.name for f in FAULTS])
def test_fault_caught_by_targeted_suite(fault):
    bundle = fault.build()
    rep = Report()
    run_suite(bundle, fault.suite, rep, samples=16)
    failures = rep.failures()
    assert failures, f"{fault.name} not caught by suite {fault.suite}"
    assert all(c.witness for c in failures)


def test_registry_has_ten_documented_faults():
    assert len(FAULTS) == 10
    assert len({f.name for f in FAULTS}) == 10
    assert all(f.description for f in FAULTS)
    assert (len(ENTRY_FAULTS), len(COCYCLE_FAULTS)) == (6, 3)


@pytest.mark.parametrize("fault", ENTRY_FAULTS, ids=[f.name for f in ENTRY_FAULTS])
def test_a_table_fault_changes_its_entry_only(fault):
    path, key, _ = fault.build.args

    def table(bundle):
        return reduce(getattr, path.split("."), bundle)

    fresh = table(faults._nc())
    edited = table(fault.build())
    assert edited.keys() == fresh.keys()
    assert [k for k in fresh if edited[k] != fresh[k]] == [key]


@pytest.mark.parametrize("fault", COCYCLE_FAULTS, ids=[f.name for f in COCYCLE_FAULTS])
def test_a_cocycle_fault_changes_its_pair_only(fault):
    which, pair, _ = fault.build.args
    fresh, data = faults._nc().data, fault.build().data
    labels = fresh.hopf.labels_box(2)

    def moved(name):
        f, g = getattr(data, name), getattr(fresh, name)
        return {(a, b) for a in labels for b in labels if f(a, b) != g(a, b)}

    assert moved(which) == {pair}
    # a scaled gamma gets its convolution inverse again, a scaled gammabar does not
    assert moved("gamma_bar" if which == "gamma" else "gamma") == \
        ({pair} if which == "gamma" else set())
