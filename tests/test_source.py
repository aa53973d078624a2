"""Source hygiene: no function-local name is assigned and never read."""

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
