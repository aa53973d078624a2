"""Source hygiene: no function-local name is assigned and never read, no
parameter or attribute goes unread without a reason, only `vectors.py`
accumulates a Vec term by term, `Fraction` stays at the edges of the
scalar field, only the constructors of a Cyc write its numbers, no Vec is
written after its builder returns, every package function is referenced
by the package, importing the package loads neither `dataclasses` nor
`inspect`, every random draw of a check goes through the argument kinds of
`Sampler.draw`, and no test file imports a name it never reads."""

import ast
import subprocess
import sys
from pathlib import Path

import cotwist

PACKAGE = Path(cotwist.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(func):
    """The nodes of func's body, not descending into nested function scopes."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _stored_names(target):
    """Names bound by an assignment target, through tuple and list unpacking."""
    if isinstance(target, ast.Name):
        yield target
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _stored_names(elt.value if isinstance(elt, ast.Starred) else elt)


def dead_locals(tree):
    """(function name, line, local name) of each local assigned and never read.

    A read anywhere below the function counts, nested closures included.
    For-loop targets and `_`-prefixed names are exempt.
    """
    out = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, declared = [], set()
        for node in _own_nodes(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    stored.extend(_stored_names(target))
            elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
                stored.extend(_stored_names(node.target))
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {node.target.id for node in ast.walk(func)
                 if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)}
        for name in stored:
            if name.id not in read and name.id not in declared \
                    and not name.id.startswith("_"):
                out.append((func.name, name.lineno, name.id))
    return sorted(out)


def test_dead_locals_detector_sees_unpacking():
    tree = ast.parse(
        "def f(v):\n"
        "    a, (b, c) = v\n"
        "    d = 1\n"
        "    _e = 2\n"
        "    for i in v:\n"
        "        pass\n"
        "    def g():\n"
        "        return c\n"
        "    return a + g()\n")
    assert dead_locals(tree) == [("f", 2, "b"), ("f", 3, "d")]


def test_no_dead_locals_in_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for func, line, name in dead_locals(ast.parse(path.read_text())):
            found.append(f"{path.name}:{line} {func}: {name}")
    assert found == []



# Parameters that may go unread, each with why.  `_`-prefixed parameters,
# `self`/`cls` and `raise NotImplementedError` stubs need no entry.
UNREAD_ALLOWED = {
    "hopf.py:HopfAlgebra.labels_box:box":
        "the finite default returns every label; infinite families override it and read box",
    "hopf.py:GroupAlgebra.counit:label":
        "every group element has counit 1; the signature is the Hopf algebra interface",
    "suites.py:suite_hopf:back":
        "run_suite calls every suite with one signature (bundle, world, back, rep, sampler)",
    "suites.py:suite_cocycle:world":
        "run_suite calls every suite with one signature (bundle, world, back, rep, sampler)",
    "suites.py:suite_chern:back":
        "run_suite calls every suite with one signature (bundle, world, back, rep, sampler)",
}


def _is_stub(func):
    """A body that is only `raise NotImplementedError`, after any docstring."""
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def unread_parameters(tree):
    """(qualified function name, parameter) of each parameter never read.

    A read anywhere below the function counts, nested closures included.
    """
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, ast.ClassDef):
                inner = scope + (child.name,)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
                args = child.args
                params = args.posonlyargs + args.args + args.kwonlyargs + \
                    [a for a in (args.vararg, args.kwarg) if a is not None]
                read = {n.id for n in ast.walk(child)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                if not _is_stub(child):
                    out.extend((".".join(inner), a.arg) for a in params
                               if a.arg not in read and a.arg not in ("self", "cls")
                               and not a.arg.startswith("_"))
            visit(child, inner)

    visit(tree, ())
    return out


def test_unread_parameter_scanner():
    tree = ast.parse(
        "def f(a, b, _c, *args, d=1, **kw):\n"
        "    def g(e):\n"
        "        return a\n"
        "    return g(kw)\n"
        "class C:\n"
        "    def m(self, x):\n"
        "        \"A stub.\"\n"
        "        raise NotImplementedError\n"
        "    def n(self, y, z):\n"
        "        y = 2\n"
        "        raise NotImplementedError(z)\n"
        "    def o(self, w):\n"
        "        raise ValueError\n")
    assert unread_parameters(tree) == [
        ("f", "b"), ("f", "d"), ("f", "args"), ("f.g", "e"), ("C.n", "y"), ("C.o", "w")]


def test_no_unread_parameters_in_package():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for func, param in unread_parameters(ast.parse(path.read_text())):
            found.add(f"{path.name}:{func}:{param}")
    assert sorted(found - set(UNREAD_ALLOWED)) == []
    # an entry whose parameter is now read, or gone, is stale
    assert found == set(UNREAD_ALLOWED)

# Attributes that may be stored on `self` and never read in the package, each
# with why: one read only by tests or by the benchmark's probes.
UNREAD_ATTRIBUTES_ALLOWED = {
    "report.py:nonzero": "CheckResult.nonzero: read by tests/test_pinned_models.py, which "
                         "pins the checks whose sides were zero at every instance",
}


def unread_attributes(trees):
    """(file, line, name) of each `self.<name> = ...` whose name no attribute
    load in any of the trees reads.

    `trees` maps file names to parsed modules.  The scan is keyed by the
    attribute's name alone, not by its class: a stored `KahlerData.cs` would
    have passed, because `HoloModule.cs` is read as `holo.cs`.
    """
    stored, loaded = [], set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node.value, ast.Name) and node.value.id == "self":
                stored.append((name, node.lineno, node.attr))
    return sorted(s for s in stored if s[2] not in loaded)


def test_unread_attribute_scanner():
    trees = {
        "a.py": ast.parse(
            "class C:\n"
            "    def __init__(self, x):\n"
            "        self.kept = x\n"
            "        self.lost, self.seen = x\n"
            "        self.other.deep = x\n"),
        "b.py": ast.parse("def f(c):\n    return c.kept + c.seen\n"),
    }
    assert unread_attributes(trees) == [("a.py", 4, "lost")]


def test_no_unread_attributes_in_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    found = {f"{name}:{attr}" for name, _, attr in unread_attributes(trees)}
    assert sorted(found - set(UNREAD_ATTRIBUTES_ALLOWED)) == []
    # an entry whose attribute is now read, or gone, is stale
    assert found == set(UNREAD_ATTRIBUTES_ALLOWED)


# Functions outside vectors.py that may still call Vec.add_term, each with why.
# Every other element map is a linear, bilinear or antilinear extension
# (Vec.apply, apply2, apply_conj, evaluate, tensor) of a basis table.  The
# slowdowns are per call, on a two-term one-form of nc_torus(1,3).
ADD_TERM_ALLOWED = {
    "modules.py:FreeModule.lmul":
        "the inner loop of every module product; its apply2 form ran 1.3x slower",
    "modules.py:FreeModule.rmul":
        "the inner loop of every module product; its apply2 form ran 1.8x slower",
    "modules.py:FreeModule._coact_key":
        "the coaction of every module key; its apply2 form ran 1.5x slower",
}


def add_term_callers(tree):
    """(qualified name of the innermost enclosing function or class, line) of
    each `.add_term(...)` call; `<module>` outside every definition."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) \
                    and child.func.attr == "add_term":
                out.append((".".join(scope) or "<module>", child.lineno))
            visit(child, inner)

    visit(tree, ())
    return out


def test_add_term_scanner_names_the_enclosing_function():
    tree = ast.parse(
        "v.add_term(1, 2)\n"
        "class C:\n"
        "    def f(self, v):\n"
        "        def g():\n"
        "            v.add_term(3, 4)\n"
        "        return [v.add_term(k, 1) for k in g()]\n")
    assert add_term_callers(tree) == [("<module>", 1), ("C.f.g", 5), ("C.f", 6)]


def test_only_vectors_accumulates():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "vectors.py":
            continue
        for func, line in add_term_callers(ast.parse(path.read_text())):
            found.add((f"{path.name}:{func}", line))
    assert sorted((f, l) for f, l in found if f not in ADD_TERM_ALLOWED) == []
    # an entry whose function no longer accumulates is stale
    assert {f for f, _ in found} == set(ADD_TERM_ALLOWED)


# Modules that may import `fractions`: rationals enter the field through them
# (`Cyc` accepts them, models build their constants such as 1/2) and leave it
# (`format_scalar`); every solve in between runs over Q(zeta_N).
FRACTIONS_ALLOWED = {"cyclotomic.py", "models.py"}


def imports(tree, module):
    """Whether the tree imports the top-level `module` anywhere, in either form."""
    return any(isinstance(node, ast.ImportFrom) and node.level == 0
               and node.module.split(".")[0] == module
               or isinstance(node, ast.Import)
               and any(a.name.split(".")[0] == module for a in node.names)
               for node in ast.walk(tree))


def test_imports_fractions_sees_both_forms():
    assert imports(ast.parse("def f():\n    from fractions import Fraction\n"), "fractions")
    assert imports(ast.parse("import os, fractions\n"), "fractions")
    assert not imports(ast.parse("from .cyclotomic import Cyc\n"), "fractions")


def test_fractions_stay_at_the_edges():
    found = {path.name for path in PACKAGE.glob("*.py")
             if imports(ast.parse(path.read_text()), "fractions")}
    assert found <= FRACTIONS_ALLOWED


# Modules that no package module imports.  `dataclasses` costs about 8 ms of
# every start-up, and it loads `inspect`, which loads `ast`, `dis` and
# `tokenize`; every `verify` and `twist` run imports the package afresh.
SLOW_IMPORTS = ("dataclasses", "inspect")


def test_slow_import_scan_sees_both_forms():
    for module in SLOW_IMPORTS:
        assert imports(ast.parse(f"def f():\n    from {module} import x\n"), module)
        assert imports(ast.parse(f"import os, {module} as m\n"), module)
        assert not imports(ast.parse(f"from .{module} import x\n"), module)


def test_no_package_module_imports_a_slow_module():
    found = sorted(f"{path.name}: {module}" for path in PACKAGE.glob("*.py")
                   for module in SLOW_IMPORTS if imports(ast.parse(path.read_text()), module))
    assert found == []


def test_importing_the_package_loads_no_slow_module():
    # -S: no site hook may load one of them first and hide the package's import
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import cotwist, cotwist.cli, cotwist.faults; "
            "print(sorted(set(sys.argv[2:]) & set(sys.modules)))")
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(PACKAGE.parent),
         *SLOW_IMPORTS, "ast", "dis", "tokenize"],
        capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


# Functions that may write a Cyc's numerators or denominator: its two
# constructors.  Every other Cyc may be shared (`Cyc.one` is one object per
# order, and a product by an exact 1 returns the other factor), so a change in
# place would change the value of every holder.
CYC_WRITERS_ALLOWED = {"cyclotomic.py:_make", "cyclotomic.py:Cyc.__init__"}
NUM_MUTATORS = {"update", "pop", "popitem", "setdefault", "clear"}


def cyc_writes(tree):
    """(qualified name of the innermost enclosing function or class, line) of
    each store to `.num` or `.den`, store into `.num[...]`, and call of a
    mutating dict method on `.num`; `<module>` outside every definition."""
    out = []

    def is_num(node):
        return isinstance(node, ast.Attribute) and node.attr == "num"

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            store = isinstance(getattr(child, "ctx", None), (ast.Store, ast.Del))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif store and isinstance(child, ast.Attribute) and child.attr in ("num", "den") \
                    or store and isinstance(child, ast.Subscript) and is_num(child.value) \
                    or isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) \
                    and child.func.attr in NUM_MUTATORS and is_num(child.func.value):
                out.append((".".join(scope) or "<module>", child.lineno))
            visit(child, inner)

    visit(tree, ())
    return out


def test_cyc_write_scanner():
    tree = ast.parse(
        "x.num = {}\n"
        "class C:\n"
        "    def f(self, c, d):\n"
        "        c.den *= 2\n"
        "        c.num[0] = 1\n"
        "        del d.num[3]\n"
        "        c.num.update(d.num)\n"
        "        c.num.setdefault(1, 0), d.num.pop(2), c.num.clear()\n"
        "        n = dict(c.num)\n"
        "        n[0] = c.num.get(0) + d.den\n"
        "        return c.num.items(), n.pop(0)\n"
        "def g(c):\n"
        "    c.order, c.den = 1, 2\n")
    assert cyc_writes(tree) == [("<module>", 1), ("C.f", 4), ("C.f", 5), ("C.f", 6), ("C.f", 7),
                                ("C.f", 8), ("C.f", 8), ("C.f", 8), ("g", 13)]


def test_only_constructors_write_a_cyc():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for func, line in cyc_writes(ast.parse(path.read_text())):
            found.add((f"{path.name}:{func}", line))
    assert sorted((f, l) for f, l in found if f not in CYC_WRITERS_ALLOWED) == []
    # an entry that no longer writes is stale
    assert {f for f, _ in found} == set(CYC_WRITERS_ALLOWED)



# Functions that may write the Vec they are called on (`self`), its terms or its
# unit key: its two builders.  Every other write must go to a name that the same function binds
# only to fresh `Vec(...)` calls.  A built Vec is shared (the memo tables, `el`
# and the linear extensions of a unit term hand out one object), so a change in
# place would change the value of every holder.
VEC_SELF_WRITERS_ALLOWED = {"vectors.py:Vec.add_term", "vectors.py:Vec.__init__"}


def _fresh_vec_names(scope):
    """Names that every binding in the scope's own body binds to a `Vec(...)`
    call; a parameter is never fresh."""
    args = scope.args
    params = args.posonlyargs + args.args + args.kwonlyargs + \
        [a for a in (args.vararg, args.kwarg) if a is not None]
    nodes = list(_own_nodes(scope))
    fresh = {node.targets[0]: node.targets[0].id for node in nodes
             if isinstance(node, ast.Assign) and len(node.targets) == 1
             and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Call)
             and isinstance(node.value.func, ast.Name) and node.value.func.id == "Vec"}
    rebound = {a.arg for a in params} | {
        node.id for node in nodes
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load) and node not in fresh}
    return set(fresh.values()) - rebound


def vec_writes(tree):
    """(qualified name of the innermost enclosing function or class, line,
    receiver) of each write to a Vec whose receiver is not a fresh name of the
    innermost enclosing function or lambda (`_fresh_vec_names`): a store to
    `.terms` or `.unit_key`, a store or delete into `.terms[...]`, a mutating
    dict method called on `.terms`, and every use of `.add_term`, a call or a
    bound method such as `add = v.add_term`; `<module>` outside every
    definition."""
    out = []

    def is_terms(node):
        return isinstance(node, ast.Attribute) and node.attr == "terms"

    def receiver(node):
        store = isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
        if isinstance(node, ast.Attribute) \
                and (node.attr == "add_term" or store and node.attr in ("terms", "unit_key")):
            return node.value
        if store and isinstance(node, ast.Subscript) and is_terms(node.value):
            return node.value.value
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in NUM_MUTATORS and is_terms(node.func.value):
            return node.func.value.value
        return None

    def visit(node, scope, fresh):
        for child in ast.iter_child_nodes(node):
            inner, inner_fresh = scope, fresh
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if isinstance(child, SCOPES):
                inner_fresh = _fresh_vec_names(child)
            elif isinstance(child, ast.ClassDef):
                inner_fresh = set()
            rec = receiver(child)
            if rec is not None and not (isinstance(rec, ast.Name) and rec.id in fresh):
                out.append((".".join(scope) or "<module>", child.lineno, ast.unparse(rec)))
            visit(child, inner, inner_fresh)

    visit(tree, (), set())
    return out


def test_vec_write_scanner():
    tree = ast.parse(
        "class Vec:\n"
        "    def __init__(self, order):\n"
        "        self.terms = {}\n"
        "        self.unit_key = None\n"
        "    def copy(self):\n"
        "        v = Vec(1)\n"
        "        v.terms = dict(self.terms)\n"
        "        v.unit_key = self.unit_key\n"
        "        add = v.add_term\n"
        "        del v.terms[0]\n"
        "        return v, self.terms.get(0), add\n"
        "def f(w, u=None):\n"
        "    w.add_term(1, 2)\n"
        "    x, y = Vec(1), Vec(1)\n"
        "    x.terms[0] = u = Vec(1)\n"
        "    u.terms.update(y.terms)\n"
        "    z = Vec(1)\n"
        "    z.terms.pop(0)\n"
        "    g = lambda: z.add_term(0, 1)\n"
        "    w.el(1).terms.clear(), w.terms.copy()\n"
        "    w.unit_key = z.unit_key = w.order\n"
        "    return g\n"
        "A.el(1).terms[0] = 2\n")
    assert vec_writes(tree) == [
        ("Vec.__init__", 3, "self"), ("Vec.__init__", 4, "self"), ("f", 13, "w"), ("f", 15, "x"),
        ("f", 16, "u"), ("f", 19, "z"), ("f", 20, "w.el(1)"), ("f", 21, "w"),
        ("<module>", 23, "A.el(1)")]


def test_no_vec_is_written_after_it_is_built():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for func, line, rec in vec_writes(ast.parse(path.read_text())):
            found.add((f"{path.name}:{func}", line, rec))
    assert sorted(w for w in found if w[0] not in VEC_SELF_WRITERS_ALLOWED or w[2] != "self") == []
    # an entry that no longer writes is stale
    assert {w[0] for w in found} == VEC_SELF_WRITERS_ALLOWED


# Package functions and methods that no module of the package references, each
# with why.  Dunder methods need no entry: the language calls them.
UNREFERENCED_ALLOWED = {
    "report.py:Report.failures":
        "public API: the failing checks of a report, for callers that build one in-process",
}


def unreferenced_functions(trees):
    """(file, qualified name) of each function or method, at any depth, whose
    name no `Name` or attribute load in any of the trees reads.  Keyed by the
    name alone, like `unread_attributes`."""
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    out = []

    def visit(name, node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
                if not isinstance(child, ast.ClassDef) and child.name not in loaded \
                        and not (child.name.startswith("__") and child.name.endswith("__")):
                    out.append((name, ".".join(inner)))
            visit(name, child, inner)

    for name, tree in trees.items():
        visit(name, tree, ())
    return sorted(out)


def test_unreferenced_function_scanner():
    trees = {
        "a.py": ast.parse(
            "def used():\n"
            "    def inner():\n"
            "        pass\n"
            "class C:\n"
            "    def __eq__(self, o):\n"
            "        return helper(o)\n"
            "    def method(self):\n"
            "        pass\n"
            "    def lost(self):\n"
            "        pass\n"
            "def helper(x):\n"
            "    return x\n"),
        "b.py": ast.parse("from a import used\nused()\nC().method\n"),
    }
    assert unreferenced_functions(trees) == [("a.py", "C.lost"), ("a.py", "used.inner")]


def test_every_package_function_is_referenced():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    found = {f"{name}:{func}" for name, func in unreferenced_functions(trees)}
    assert sorted(found - set(UNREFERENCED_ALLOWED)) == []
    # an entry that the package now references, or that is gone, is stale
    assert found == set(UNREFERENCED_ALLOWED)


# `range(...)` calls in suites.py, outside `Sampler`, whose arguments read
# `sampler.n`, each with why it stays.  Every other sample count is
# `Sampler.draws`, so changing how many samples a check takes, or which, is a
# change to `Sampler` alone.
SAMPLE_COUNT_LOOPS_ALLOWED = {
    "suite_hermitian:range(max(sampler.n, 100))":
        "herm.relation-sampled takes at least 100 pairs whatever the sample count; "
        "Sampler.draws takes at most the sample count",
}


def sample_count_loops(tree):
    """(qualified name of the innermost enclosing function, source of the call)
    of each `range(...)` call whose arguments read `sampler.n`, outside a class
    named `Sampler`; `<module>` outside every definition."""
    out = []

    def reads_sampler_n(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "n"
                   and isinstance(n.value, ast.Name) and n.value.id == "sampler"
                   for n in ast.walk(node))

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and child.name == "Sampler":
                continue
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Name) \
                    and child.func.id == "range" \
                    and any(reads_sampler_n(a) for a in child.args):
                out.append((".".join(scope) or "<module>", ast.unparse(child)))
            visit(child, inner)

    visit(tree, ())
    return sorted(out)


def test_sample_count_loop_scanner():
    tree = ast.parse(
        "class Sampler:\n"
        "    def draws(self, sampler, cap):\n"
        "        return range(min(sampler.n, cap))\n"
        "def suite(sampler, k):\n"
        "    def gen():\n"
        "        for _ in range(min(sampler.n, 8)):\n"
        "            yield range(k)\n"
        "    xs = [x for x in range(1, max(sampler.n, 100))]\n"
        "    return xs, range(len(sampler.labels)), sampler.draws(sampler.n, gen)\n"
        "top = range(sampler.n)\n")
    assert sample_count_loops(tree) == [
        ("<module>", "range(sampler.n)"), ("suite", "range(1, max(sampler.n, 100))"),
        ("suite.gen", "range(min(sampler.n, 8))")]


def test_the_sampler_counts_every_sample():
    found = {f"{func}:{call}"
             for func, call in sample_count_loops(ast.parse((PACKAGE / "suites.py").read_text()))}
    assert sorted(found - set(SAMPLE_COUNT_LOOPS_ALLOWED)) == []
    # an entry whose loop is gone is stale
    assert found == set(SAMPLE_COUNT_LOOPS_ALLOWED)


# The argument kinds of `Sampler.draw`: the name of the one kind without
# arguments, and the constructors of the others.
KIND_NAMES = {"LABEL"}
KIND_CONSTRUCTORS = {"elem", "el", "choice"}


def draws_past_the_kinds(tree):
    """(line, source) of each draw that goes round the kinds, outside a class
    named `Sampler`: a read of `sampler.rng`, `sampler.label` or
    `sampler.module_elem`, and each argument of `sampler.draw(...)`, or of
    `sampler.draws(cap, ...)` after the cap, that is not a kind."""
    out = []

    def is_sampler(node):
        return isinstance(node, ast.Name) and node.id == "sampler"

    def is_kind(node):
        return isinstance(node, ast.Name) and node.id in KIND_NAMES \
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in KIND_CONSTRUCTORS

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and child.name == "Sampler":
                continue
            if isinstance(child, ast.Attribute) and is_sampler(child.value) \
                    and child.attr in ("rng", "label", "module_elem"):
                out.append((child.lineno, ast.unparse(child)))
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) \
                    and is_sampler(child.func.value) and child.func.attr in ("draw", "draws"):
                args = child.args[child.func.attr == "draws":] + child.keywords
                out.extend((a.lineno, ast.unparse(a)) for a in args if not is_kind(a))
            visit(child)

    visit(tree)
    return sorted(out)


def test_draw_scanner():
    tree = ast.parse(
        "class Sampler:\n"
        "    def draw(self, sampler, *kinds):\n"
        "        return sampler.rng.choice(sampler.labels), sampler.draw(*kinds)\n"
        "def suite(sampler, M, B, f):\n"
        "    a = sampler.draws(8, elem(M), el(B), LABEL, choice(M.basis))\n"
        "    b = [sampler.draw(elem(M, M)) for _ in sampler.labels]\n"
        "    c = sampler.draws(8, lambda: sampler.label())\n"
        "    d = sampler.draws(6, partial(sampler.module_elem, M))\n"
        "    e = sampler.draw(f, elem(M), kind=LABEL)\n"
        "    return sampler.rng.random()\n")
    assert draws_past_the_kinds(tree) == [
        (7, "lambda: sampler.label()"), (7, "sampler.label"),
        (8, "partial(sampler.module_elem, M)"), (8, "sampler.module_elem"),
        (9, "f"), (9, "kind=LABEL"), (10, "sampler.rng")]


def test_only_the_sampler_draws():
    # every random draw of a check is a declared kind, so the RNG stream that
    # every recorded output depends on is decided in `Sampler.draw` alone
    assert draws_past_the_kinds(ast.parse((PACKAGE / "suites.py").read_text())) == []
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if imports(ast.parse(path.read_text()), "random")] == ["suites.py"]


def unused_imports(tree):
    """(line, name) of each name an import binds, at any depth, that no `Name`
    load anywhere in the tree reads; `import a.b` binds `a`."""
    bound = [(node.lineno, alias.asname or alias.name.split(".")[0])
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names if alias.name != "*"]
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for line, name in bound if name not in loaded)


def test_unused_import_scanner():
    tree = ast.parse(
        "import os, os.path\n"
        "import json as js\n"
        "from a import b, c as d\n"
        "from e import *\n"
        "def f():\n"
        "    from g import h\n"
        "    return b, os.sep\n")
    assert unused_imports(tree) == [(2, "js"), (3, "d"), (6, "h")]


def test_no_test_imports_a_name_it_never_reads():
    found = [f"{path.name}:{line} {name}" for path in sorted(TESTS.glob("*.py"))
             for line, name in unused_imports(ast.parse(path.read_text()))]
    assert found == []


def _is_none(node):
    return node is None or isinstance(node, ast.Constant) and node.value is None


def _is_identity_test(test):
    """`a != b`, `not X.is_zero()`, or an `or` of them: the test of an identity."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        return all(_is_identity_test(v) for v in test.values)
    if isinstance(test, ast.Compare):
        return len(test.ops) == 1 and isinstance(test.ops[0], ast.NotEq)
    return isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not) \
        and isinstance(test.operand, ast.Call) and not test.operand.args \
        and isinstance(test.operand.func, ast.Attribute) and test.operand.func.attr == "is_zero"


def _is_equality_outcome(node):
    """`W if <identity test> else None`: one identity's outcome."""
    return isinstance(node, ast.IfExp) and _is_none(node.orelse) and _is_identity_test(node.test)


def _is_equality_defect(func):
    """Whether a lambda or def returns only witnesses guarded by identity tests:
    `W if <test> else None`, or `if <test>: return W`.  Two or more witnesses
    are one identity with a text per component unless one is inside a loop,
    which searches through the parts of an instance: a predicate."""
    if isinstance(func, ast.Lambda):
        return _is_equality_outcome(func.body)
    nodes = list(_own_nodes(func))
    witnesses = [n for n in nodes if isinstance(n, ast.Return) and not _is_none(n.value)]
    looped = {id(n) for loop in nodes if isinstance(loop, (ast.For, ast.While))
              for n in ast.walk(loop)}
    guarded = [w for w in witnesses if _is_equality_outcome(w.value) or any(
        isinstance(n, ast.If) and w in n.body and _is_identity_test(n.test) for n in nodes)]
    return bool(witnesses) and guarded == witnesses \
        and (len(witnesses) == 1 or not looped & set(map(id, witnesses)))


def _is_equality_generator(func):
    """Whether a def is a generator whose every yield is an identity's outcome,
    `W if <identity test> else None` or `yield from table_outcomes(...)`, and
    that draws nothing between them (`.draw(...)`)."""
    nodes = list(_own_nodes(func))
    yields = [n for n in nodes if isinstance(n, (ast.Yield, ast.YieldFrom))]
    draws = any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "draw" for n in nodes)
    return bool(yields) and not draws and all(
        _is_equality_outcome(y.value) if isinstance(y, ast.Yield)
        else _calls(y.value, "table_outcomes") for y in yields)


def _calls(node, name):
    """Whether the expression calls the function `name` anywhere."""
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name
               for n in ast.walk(node))


def equality_shaped_foralls(tree):
    """(qualified name of the innermost enclosing function, line) of each
    `.forall(...)` call that checks identities: its defect, a lambda or a def
    of an enclosing scope, returns only witnesses under `a != b` or
    `not X.is_zero()` (see `_is_equality_defect`); or its domain calls
    `table_outcomes`, or is a generator of an enclosing scope that yields only
    such outcomes and draws nothing between them.  Such a check is a
    `Report.equal`; `<module>` outside every definition."""
    out = []

    def local_def(node, scopes):
        if not isinstance(node, ast.Name):
            return node
        return next((n for scope in reversed(scopes) for n in _own_nodes(scope)
                     if isinstance(n, ast.FunctionDef) and n.name == node.id), None)

    def visit(node, scopes, qual):
        for child in ast.iter_child_nodes(node):
            inner, inner_qual = scopes, qual
            if isinstance(child, SCOPES):
                inner = scopes + [child]
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner_qual = qual + (child.name,)
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) \
                    and child.func.attr == "forall" and len(child.args) == 4:
                domain, defect = child.args[2], local_def(child.args[3], scopes)
                generator = isinstance(domain, ast.Call) and local_def(domain.func, scopes)
                if isinstance(defect, (ast.Lambda, ast.FunctionDef)) \
                        and _is_equality_defect(defect) \
                        or _calls(domain, "table_outcomes") \
                        or isinstance(generator, ast.FunctionDef) \
                        and _is_equality_generator(generator):
                    out.append((".".join(qual) or "<module>", child.lineno))
            visit(child, inner, inner_qual)

    visit(tree, [tree], ())
    return out


def test_equality_shaped_forall_scanner():
    tree = ast.parse(
        "def suite(rep, A, xs, sampler):\n"
        "    rep.forall('a', 'x', xs, lambda x: 'W' if A(x) != x else None)\n"
        "    rep.forall('b', 'x', xs, lambda x: 'W' if not A(x).is_zero() else None)\n"
        "    def one(x):\n"
        "        if A(x) != x or A(A(x)) != x:\n"
        "            return f'W at {x}'\n"
        "        return None\n"
        "    rep.forall('c', 'x', xs, one)\n"
        "    def inline(x):\n"
        "        lhs = A(x)\n"
        "        return 'W' if lhs != x else None\n"
        "    rep.forall('d', 'x', xs, inline)\n"
        "    def two(x):\n"
        "        if A(x) != x:\n"
        "            return 'W1'\n"
        "        return 'W2' if A(A(x)) != x else None\n"
        "    rep.forall('e', 'x', xs, two)\n"
        "    rep.forall('f', 'x', xs, lambda x: 'W' if not A(x).is_real() else None)\n"
        "    rep.forall('g', 'x', xs, lambda x: 'W' if A(x) != x and x else None)\n"
        "    rep.forall('h', 'x', gen(), outcome)\n"
        "    rep.equal('i', 'x', xs, lambda x: (A(x), x), 'W')\n"
        "    for k in xs:\n"
        "        def looped(x):\n"
        "            return 'W' if A(x) != x else None\n"
        "        rep.forall('j', 'x', xs, looped)\n"
        "    def parts(x):\n"
        "        for p in x:\n"
        "            if A(p) != p:\n"
        "                return 'W1'\n"
        "        return 'W2' if A(x) != x else None\n"
        "    rep.forall('l', 'x', xs, parts)\n"
        "    def tables():\n"
        "        yield 'W' if A(0) != 0 else None\n"
        "        yield from table_outcomes(xs, A, xs, 'W')\n"
        "    rep.forall('m', 'x', tables(), outcome)\n"
        "    rep.forall('n', 'x', chain(table_outcomes(xs, A, xs, 'W')), outcome)\n"
        "    def drawing():\n"
        "        for x in xs:\n"
        "            yield 'W1' if A(x) != x else None\n"
        "            u = sampler.draw(LABEL)\n"
        "            yield 'W2' if A(u) != u else None\n"
        "    rep.forall('o', 'x', drawing(), outcome)\n"
        "    def solve():\n"
        "        try:\n"
        "            theta = A(xs)\n"
        "        except ValueError as exc:\n"
        "            yield str(exc)\n"
        "            return\n"
        "        yield 'W' if theta != xs else None\n"
        "    rep.forall('p', 'x', solve(), outcome)\n"
        "def gen():\n"
        "    yield 'W' if 1 != 2 else None\n"
        "class R:\n"
        "    def eq(self, xs, f):\n"
        "        def defect(x):\n"
        "            return 'W' if f(x) != x else None\n"
        "        return self.forall('k', 'x', xs, defect)\n")
    assert equality_shaped_foralls(tree) == [
        ("suite", 2), ("suite", 3), ("suite", 8), ("suite", 12), ("suite", 17), ("suite", 20),
        ("suite", 25), ("suite", 35), ("suite", 36), ("R.eq", 57)]


# `forall` calls in the package whose defect is equality-shaped, each with why.
EQUALITY_FORALLS_ALLOWED = {
    "report.py:Report.equal": "Report.equal itself: the one forall over two sides",
}


def test_every_identity_with_one_witness_is_an_equal():
    found = [f"{path.name}:{func}" for path in sorted(PACKAGE.glob("*.py"))
             for func, _ in equality_shaped_foralls(ast.parse(path.read_text()))]
    assert sorted(set(found) - set(EQUALITY_FORALLS_ALLOWED)) == []
    # an entry that is now an equal, or gone, is stale
    assert sorted(found) == sorted(EQUALITY_FORALLS_ALLOWED)


# the repository's line width
MAX_LINE = 100


def test_no_package_line_is_wider_than_the_repository_width():
    wide = [f"{path.name}:{n} ({len(line)})" for path in sorted(PACKAGE.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1) if len(line) > MAX_LINE]
    assert wide == []
