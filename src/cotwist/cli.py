"""Command-line entry point: build models, run suites, emit twisted tables.

Exit codes: 0 all selected checks pass, 1 at least one check fails,
2 configuration errors.  Output is deterministic for a fixed
(model, params, seed, version).
"""

from __future__ import annotations

import argparse
import os
import sys

from .emit import emit_json, structure_tables
from .models import MODELS, build_model, twist_world
from .report import Report
from .suites import SUITES, run_suite

FORMAT_ENV = "COTWIST_FORMAT"
SUITE_VERSION = "1"
CONFIG_KEYS = ("model", "p", "q", "n", "pairing", "group", "box", "samples", "seed",
               "suite", "format", "emit")


class ConfigError(Exception):
    pass


def load_config(path):
    """Flat key=value text file over CONFIG_KEYS; blank lines and # comments ignored."""
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                out[key] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return out


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cotwist",
        description="Exact verification of unitary cocycle deformations "
                    "of covariant differential calculi.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p):
        p.add_argument("--model", required=False, choices=list(MODELS))
        p.add_argument("--p", type=int, default=None, help="nc_torus numerator")
        p.add_argument("--q", type=int, default=None, help="nc_torus denominator")
        p.add_argument("--n", type=int, default=None, help="finite_bicharacter order")
        p.add_argument("--pairing", default=None,
                       help="finite_bicharacter pairing: skew|upper|trivial")
        p.add_argument("--group", default=None, help="fun_group group name")
        p.add_argument("--box", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None,
                       help="flat key=value file supplying any of the flags")

    pv = sub.add_parser("verify", help="run a verification suite")
    add_model_args(pv)
    pv.add_argument("--suite", default=None, choices=list(SUITES) + ["all"])
    pv.add_argument("--format", default=None, choices=["text", "json"])

    pt = sub.add_parser("twist", help="emit twisted structure tables")
    add_model_args(pt)
    pt.add_argument("--emit", default=None, help="output path (default stdout)")
    pt.add_argument("--untwisted", action="store_true",
                    help="emit the untwisted tables instead")
    return parser


def _merge_config(args):
    cfg = {}
    if args.config:
        cfg = load_config(args.config)
    merged = {}
    for key in CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is None and key in cfg:
            val = cfg[key]
        merged[key] = val
    for key in ("p", "q", "n", "box", "samples", "seed"):
        if isinstance(merged.get(key), str):
            try:
                merged[key] = int(merged[key])
            except ValueError:
                raise ConfigError(f"{key} must be an integer, got {merged[key]!r}")
    return merged


def _model_params(merged):
    """The model's name, and the flags that are set and that its builder takes."""
    name = merged["model"]
    if not name:
        raise ConfigError("a model is required (--model or config)")
    # an unknown name is left for build_model to reject
    code = MODELS[name].__code__ if name in MODELS else None
    taken = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount] if code else ()
    return name, {k: v for k, v in merged.items() if k in taken and v is not None}


def cmd_verify(args):
    merged = _merge_config(args)
    fmt = merged["format"] or os.environ.get(FORMAT_ENV, "text")
    if fmt not in ("text", "json"):
        raise ConfigError(f"unknown format {fmt!r}")
    name, params = _model_params(merged)
    suite = merged["suite"] or "all"
    if suite not in list(SUITES) + ["all"]:
        raise ConfigError(f"unknown suite {suite!r}")
    try:
        bundle = build_model(name, **params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"cannot build model {name}: {exc}")
    rep = Report(meta={
        "model": bundle.name, "suite": suite,
        "box": bundle.box, "samples": bundle.samples, "seed": bundle.seed,
        "version": SUITE_VERSION,
    })
    run_suite(bundle, suite, rep)
    sys.stdout.write(rep.to_json() + "\n" if fmt == "json" else rep.to_text() + "\n")
    return 0 if rep.passed else 1


def cmd_twist(args):
    merged = _merge_config(args)
    name, params = _model_params(merged)
    try:
        bundle = build_model(name, **params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"cannot build model {name}: {exc}")
    b = bundle if args.untwisted else twist_world(bundle)
    tables = structure_tables(b)
    tables["model"] = bundle.name
    payload = emit_json(tables)
    if merged["emit"]:
        try:
            with open(merged["emit"], "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ConfigError(f"cannot write {merged['emit']}: {exc}")
    else:
        sys.stdout.write(payload)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "twist":
            return cmd_twist(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
