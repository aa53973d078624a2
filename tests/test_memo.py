"""Memoised structure tables: once per key, never stale, never aliased, held weakly."""

import gc
import weakref
from collections import Counter

from cotwist.calculus import Calculus
from cotwist.cocycle import CocycleData, TwistedHopf
from cotwist.cyclotomic import Cyc
from cotwist.faults import fault_antipode_corrupted
from cotwist.hopf import FunctionAlgebra, GroupAlgebra
from cotwist.models import ModelBundle, finite_bicharacter, fun_group, nc_torus, twist_world
from cotwist.modules import ComodAlgebra, FreeModule
from cotwist.relhopf import TwistedComodule
from cotwist.report import Report
from cotwist.suites import run_suite

# every pure label-level table, by the class whose __init__ memoises it
TABLES = {
    GroupAlgebra: ("basis", "mult", "coproduct", "sweedler", "star", "antipode",
                   "antipode_inv", "unit"),
    FunctionAlgebra: ("basis", "mult", "coproduct", "sweedler", "unit", "star", "antipode",
                      "antipode_inv", "counit"),
    TwistedHopf: ("basis", "antipode", "antipode_inv", "star"),
    CocycleData: ("U", "Ubar", "V", "Vbar"),
    ComodAlgebra: ("basis",),
    TwistedComodule: ("mult", "star"),
    FreeModule: ("r_act", "l_to_r", "coact_basis", "_coact_key"),
    Calculus: ("basis_form",),
    ModelBundle: ("_chern_outcome",),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _count_tables(monkeypatch):
    """Count each table's underlying calls per (defining class, object, key).

    A table is wrapped on the listed class and on every subclass that
    defines its own, so an override calling `super()` counts apart."""
    calls, alive = Counter(), {}

    def counted(fn, tag):
        def table(obj, *key):
            alive[id(obj)] = obj  # no id is reused while counting
            calls[(tag, id(obj), key)] += 1
            return fn(obj, *key)
        return table

    for cls, names in TABLES.items():
        for name in names:
            for c in (cls, *_subclasses(cls)):
                if c is cls or name in vars(c):
                    fn = getattr(cls, name) if c is cls else vars(c)[name]
                    monkeypatch.setattr(c, name, counted(fn, f"{c.__name__}.{name}"))
    return calls


def test_each_table_computes_each_key_once(monkeypatch):
    calls = _count_tables(monkeypatch)
    for bundle in (nc_torus(1, 3, box=2, samples=3), finite_bicharacter(3), fun_group("s3")):
        run_suite(bundle, "all", Report(meta={}))
    repeated = {(tag, key): n for (tag, _, key), n in calls.items() if n > 1}
    assert not repeated
    seen = {tag for tag, _, _ in calls}
    for tag in ("GroupAlgebra.star", "GroupAlgebra.antipode_inv", "FunctionAlgebra.counit",
                "TwistedHopf.star", "CocycleData.Vbar", "Calculus.basis_form",
                "CentralBasisModule.r_act", "ModelBundle._chern_outcome"):
        assert tag in seen


def test_fault_edited_calculus_tables_stay_live():
    b = nc_torus(1, 3, box=2, samples=3)
    cals = (b.calculus, twist_world(b).calculus)  # the twist shares the tables
    before = []
    for cal in cals:
        w_plus, w_minus = cal.basis_form("w+"), cal.basis_form("w-")
        before.append((cal.d(w_plus), cal.wedge(w_plus, w_minus)))
    # the edits of fault_d_corrupted and fault_wedge_corrupted
    cal = b.calculus
    cal.d_table["w+"] = cal.module(2).el("vol")
    cal.wedge_table[("w+", "w-")] = cal.wedge_table[("w+", "w-")].scale(Cyc.root(3))
    for cal, (d_old, wedge_old) in zip(cals, before):
        w_plus, w_minus = cal.basis_form("w+"), cal.basis_form("w-")
        assert cal.d(w_plus) != d_old
        assert cal.wedge(w_plus, w_minus) != wedge_old


def test_antipode_inverse_is_not_the_corrupted_antipode():
    A = fault_antipode_corrupted().hopf
    g = A.elements[2]
    assert A.antipode(g) == A.el(A.elements[3]) != A.el(g.inv())
    assert A.antipode_inv(g) == A.el(g.inv())


def test_memo_tables_hold_their_objects_weakly():
    gc.disable()
    try:
        b = nc_torus(1, 3, box=2, samples=3)
        run_suite(b, "hopf", Report(meta={}))
        refs = [weakref.ref(x) for x in (b, b.hopf, b.comodule, b.data, b.calculus,
                                         *b.calculus.modules.values())]
        del b
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()
