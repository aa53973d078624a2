"""Per-layer split of one traced iteration, measured from outside `src/`.

Each layer is one module of `src/cotwist`, plus the standard library's
`fractions` as the other half of the scalar layer.  cProfile gives self
time, inclusive time and exact call counts; the self time of builtins and
of other standard-library frames (`isinstance`, `abc`, `math.gcd`, `json`)
is charged to the layer that called them.

The per-instance caches (`PairFunctional`, `TwistedHopf.mult` and every
`memoize_table`) are registered as they are created, so their final sizes
can be read after the run even when the model that owned them is gone.
"""

from __future__ import annotations

import cProfile
import fractions
import pstats
from collections import defaultdict
from pathlib import Path

from cotwist import cocycle, cyclotomic, modules, vectors

LAYERS = ("cli", "suites", "report", "faults", "models", "geometry", "calculus",
          "relhopf", "modules", "cocycle", "hopf", "vectors", "cyclotomic",
          "emit", "fractions")

PACKAGE = Path(cyclotomic.__file__).resolve().parent
FRACTIONS = Path(fractions.__file__).resolve()

# metric prefix -> (layer, function name) of the function it reads
ENTRY_POINTS = {
    "models.build_model": ("models", "build_model"),
    "models.twist_world": ("models", "twist_world"),
    "geometry.chern_solve": ("geometry", "chern_solve"),
    "vectors.gauss_solve": ("vectors", "gauss_solve"),
    "cyclotomic.inverse": ("cyclotomic", "inverse"),
    "emit.emit_json": ("emit", "emit_json"),
    "cyclotomic.mul": ("cyclotomic", "__mul__"),
    "cyclotomic.add": ("cyclotomic", "__add__"),
    "cyclotomic.canonical": ("cyclotomic", "canonical"),
    "fractions.new": ("fractions", "__new__"),
    "vectors.add_term": ("vectors", "add_term"),
    "hopf.sweedler": ("hopf", "sweedler"),
    "hopf.memo": ("vectors", "wrapped"),
    "cocycle.pair_functional": ("cocycle", "__call__"),
    "cocycle.twisted_mult": ("cocycle", "mult"),
}
INCLUSIVE = ("models.build_model", "models.twist_world", "geometry.chern_solve",
             "vectors.gauss_solve", "cyclotomic.inverse", "emit.emit_json")
COUNTED = ("geometry.chern_solve", "vectors.gauss_solve", "cyclotomic.inverse",
           "cyclotomic.mul", "cyclotomic.add", "cyclotomic.canonical",
           "fractions.new", "vectors.add_term", "hopf.sweedler")


def _closure_cell(fn, name):
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


class Probe:
    """cProfile plus a registry of the caches created while it runs."""

    def __init__(self):
        self.profile = cProfile.Profile()
        self.pair_functionals = []
        self.twisted = []
        self.memo_tables = []
        self._layer_of_file = {}

    def start(self):
        _register(cocycle.PairFunctional, self.pair_functionals)
        _register(cocycle.TwistedHopf, self.twisted)
        memoize = vectors.memoize_table

        def registered_memoize(fn):
            wrapped = memoize(fn)
            self.memo_tables.append(wrapped)
            return wrapped

        # hopf imports memoize_table when an algebra is built, modules at import
        vectors.memoize_table = modules._memoize = registered_memoize
        self.profile.enable()

    def stop(self):
        self.profile.disable()

    def _layer(self, func):
        filename = func[0]
        layer = self._layer_of_file.get(filename, False)
        if layer is False:
            path = Path(filename).resolve() if filename != "~" else None
            if path is not None and path.parent == PACKAGE:
                layer = path.stem if path.stem in LAYERS else None
            elif path == FRACTIONS:
                layer = "fractions"
            else:
                layer = None
            self._layer_of_file[filename] = layer
        return layer

    def _self_times(self, stats):
        shares = {}

        def share(func, seen):
            """How func's self time splits over the layers that called it."""
            layer = self._layer(func)
            if layer:
                return {layer: 1.0}
            if func in shares:
                return shares[func]
            if func in seen or func not in stats:
                return {}
            callers = stats[func][4]
            total = sum(edge[2] for edge in callers.values())
            out = defaultdict(float)
            for caller, edge in callers.items():
                w = edge[2] / total if total else 1.0 / len(callers)
                for name, s in share(caller, seen | {func}).items():
                    out[name] += w * s
            shares[func] = out
            return out

        self_s = dict.fromkeys(LAYERS, 0.0)
        for func, (_, _, tt, _, _) in stats.items():
            for name, s in share(func, frozenset()).items():
                self_s[name] += tt * s
        return self_s

    def metrics(self, checks, checks_failed):
        """Every per-layer metric of the traced run, by name."""
        stats = pstats.Stats(self.profile).stats
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        wanted = {v: k for k, v in ENTRY_POINTS.items()}
        for func, (_, nc, _, ct, _) in stats.items():
            key = wanted.get((self._layer(func), func[2]))
            if key:
                calls[key] += nc
                inclusive[key] += ct

        out = {f"{name}.self_s": t for name, t in self._self_times(stats).items()}
        out.update({f"{k}.s": inclusive[k] for k in INCLUSIVE})
        out.update({f"{k}.calls": calls[k] for k in COUNTED})
        out["suites.checks"] = checks
        out["suites.checks_failed"] = checks_failed

        info = cyclotomic._power_reduction.cache_info()
        sizes = {
            "cyclotomic.power_reduction": (info.hits + info.misses, info.currsize),
            "hopf.memo": (calls["hopf.memo"], sum(
                len(_closure_cell(w, "cache")) for w in self.memo_tables)),
            "cocycle.pair_functional": (calls["cocycle.pair_functional"], sum(
                len(p._cache) for p in self.pair_functionals)),
            "cocycle.twisted_mult": (calls["cocycle.twisted_mult"], sum(
                len(t._mult_cache) for t in self.twisted)),
        }
        for name, (n, size) in sizes.items():
            out[f"{name}.calls"] = n
            out[f"{name}.size"] = size
            out[f"{name}.hit_ratio"] = 1 - size / n if n else 0.0
        return out


def _register(cls, into):
    """Make every new instance of cls append itself to `into`."""
    init = cls.__init__

    def registered_init(obj, *args, **kwargs):
        init(obj, *args, **kwargs)
        into.append(obj)

    cls.__init__ = registered_init
