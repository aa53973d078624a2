"""Byte-stable serialisation of structure tables (the `twist --emit` payload).

Scalars are emitted symbolically as canonical 'a/b*zeta(N)^k' sums, never as
floats; object keys are sorted, so identical structures serialise to
identical bytes.
"""

from __future__ import annotations

import json

from .cyclotomic import format_scalar

SCHEMA_VERSION = 1


def _terms(vec, name_fn):
    return [
        {"coeff": format_scalar(c), "monomial": name_fn(k)}
        for k, c in vec.sorted_terms()
    ]


def _b_name(B):
    return lambda label: B.label_name(label)


def _mod_name(mod):
    def name(key):
        b, i = key
        return f"{mod.base.label_name(b)}.{mod.basis_name(i)}"
    return name


def structure_tables(bundle):
    """Collect a bundle's product/star/wedge/d/g/nabla/H tables into a JSON-ready dict."""
    B = bundle.comodule
    gens = B.generators()
    out = {
        "schema_version": SCHEMA_VERSION,
        "scalar_order": B.scalar_order,
        "product": {}, "star": {},
    }
    for a in gens:
        for b in gens:
            key = f"{B.label_name(a)}|{B.label_name(b)}"
            out["product"][key] = _terms(B.mult(a, b), _b_name(B))
        out["star"][B.label_name(a)] = _terms(B.star(a), _b_name(B))
    cal = bundle.calculus
    if cal is not None:
        # evaluate through the calculus operations, so twisted instances
        # emit their genuinely recomputed tables
        out["wedge"] = {}
        for i in cal.module(1).basis:
            for j in cal.module(1).basis:
                val = cal.wedge(cal.basis_form(i), cal.basis_form(j))
                out["wedge"][f"{i}|{j}"] = _terms(val, _mod_name(cal.module(2)))
        out["d"] = {}
        for g in gens:
            out["d"][B.label_name(g)] = _terms(
                cal.d(cal.from_b(B.el(g))), _mod_name(cal.module(1)))
        for k in range(1, cal.top):
            for name in cal.module(k).basis:
                out["d"][name] = _terms(
                    cal.d(cal.basis_form(name)), _mod_name(cal.module(k + 1)))
        out["star_forms"] = {}
        for k in range(0, cal.top + 1):
            for name in cal.module(k).basis:
                out["star_forms"][name] = _terms(
                    cal.star(cal.basis_form(name)), _mod_name(cal.module(k)))
    metric = bundle.metric
    if metric is not None:
        out["g"] = _terms(metric.g, _mod_name(metric.tensor))
        out["pairing"] = {
            f"{i}|{j}": _terms(v, _b_name(B))
            for (i, j), v in sorted(metric.pairing_table.items(), key=str)
        }
    if bundle.connection is not None:
        out["nabla"] = {
            str(i): _terms(v, _mod_name(bundle.connection.tensor))
            for i, v in sorted(bundle.connection.table.items(), key=str)
        }
    if bundle.hermitian is not None:
        out["hermitian"] = {
            str(k): _terms(v, _mod_name(bundle.hermitian.hom))
            for k, v in sorted(bundle.hermitian.table.items(), key=str)
        }
    return out


def emit_json(tables):
    return json.dumps(tables, indent=2, sort_keys=True) + "\n"
