"""Source hygiene: no function-local name is assigned and never read, only
`vectors.py` accumulates a Vec term by term, and `Fraction` stays at the
edges of the scalar field."""

import ast
from pathlib import Path

import cotwist

PACKAGE = Path(cotwist.__file__).resolve().parent
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


# Functions outside vectors.py that may still call Vec.add_term, each with why.
# Every other element map is a linear, bilinear or antilinear extension
# (Vec.apply, apply2, apply_conj, evaluate, tensor) of a basis table.  The
# slowdowns are per call, on a two-term one-form of nc_torus(1,3).
ADD_TERM_ALLOWED = {
    "modules.py:FreeModule.lmul":
        "the inner loop of every module product; its apply2 form ran 1.3x slower",
    "modules.py:FreeModule.rmul":
        "the inner loop of every module product; its apply2 form ran 1.8x slower",
    "modules.py:FreeModule.coact":
        "the coaction of every module element; its apply2 form ran 1.5x slower",
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


def imports_fractions(tree):
    return any(isinstance(node, ast.ImportFrom) and node.module == "fractions"
               or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
               for node in ast.walk(tree))


def test_imports_fractions_sees_both_forms():
    assert imports_fractions(ast.parse("def f():\n    from fractions import Fraction\n"))
    assert imports_fractions(ast.parse("import os, fractions\n"))
    assert not imports_fractions(ast.parse("from .cyclotomic import Cyc\n"))


def test_fractions_stay_at_the_edges():
    found = {path.name for path in PACKAGE.glob("*.py")
             if imports_fractions(ast.parse(path.read_text()))}
    assert found <= FRACTIONS_ALLOWED
