"""The route ledger: routes that arbitrate one another share no package code.

Each group in ROUTES lists routes that cross-check one another.  The
ledger parses the package's modules with ast and takes each route's
closure: the package functions that its body names, the ones that theirs
name, and so on.  A name resolves in the module that reads it, to a
module-level def or class there or through a relative import (`from .mod
import name`, or `from . import mod` and then `mod.name`).  A class stands
for its own __init__, and a class without one (an exception type) names no
code.  Annotations are left out.  Methods called on values (`x.f()`) and
operators are not followed, so the ledger sees what a route reaches by name.

Two routes of one group may share only the functions in SHARED: the
S-value record and its q check, and the integer check with the helper
that renders its message.  Any other function they share would be code
that both get wrong together, so their agreement would not check it.
"""

import ast
import itertools
from pathlib import Path

import pytest

import zetapoly

ROUTES = {
    "lpoly": (
        "lpoly.coeffs_by_recurrence",
        "lpoly.coeffs_by_parapermanent",
        "lpoly.coeffs_by_compositions",
    ),
    "defect2": (
        "defect2.a_list_theta",
        "defect2.a_list_theta_recurrence",
        "defect2._branch_coeffs",
    ),
}
SHARED = {"lpoly.SSequence", "lpoly._check_q", "lpoly._as_integers", "errors.describe"}


def _ledger():
    # {"module.name": the names it reads, resolved to "module.name"}
    # for every package function
    package = Path(zetapoly.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in package.glob("*.py")}
    bodies, imported, modules = {}, {}, {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                bodies[module, node.name] = node
            elif isinstance(node, ast.ClassDef):
                init = [
                    item for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__"
                ]
                bodies[module, node.name] = init[0] if init else None
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[module, alias.asname or alias.name] = alias.name
                    else:
                        imported[module, alias.asname or alias.name] = node.module, alias.name

    def resolve(module, name):
        while (module, name) in imported:
            module, name = imported[module, name]
        if bodies.get((module, name)) is not None:
            return f"{module}.{name}"
        return None

    ledger = {}
    for (module, name), function in bodies.items():
        if function is None:
            continue
        annotations = set()
        for node in ast.walk(function):
            for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if annotation is not None:
                    annotations.update(map(id, ast.walk(annotation)))
        read = set()
        for node in ast.walk(function):
            if id(node) in annotations:
                continue
            if isinstance(node, ast.Name):
                read.add(resolve(module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if (module, node.value.id) in modules:
                    read.add(resolve(modules[module, node.value.id], node.attr))
        read.discard(None)
        ledger[f"{module}.{name}"] = read
    return ledger


LEDGER = _ledger()


def _closure(route):
    reached, pending = set(), [route]
    while pending:
        function = pending.pop()
        if function not in reached:
            reached.add(function)
            pending.extend(LEDGER[function])
    return reached


@pytest.mark.parametrize(
    "first, second",
    [pair for routes in ROUTES.values() for pair in itertools.combinations(routes, 2)],
)
def test_cross_checking_routes_share_only_the_allowlist(first, second):
    shared = sorted((_closure(first) & _closure(second)) - SHARED)
    assert shared == [], f"{first} and {second} share {', '.join(shared)}"


def test_ledger_follows_imports_and_classes():
    # a ledger that resolves nothing would pass the test above vacuously
    assert {"lpoly._parapermanent", "parapermanent._last_row", "errors.describe"} <= _closure(
        "lpoly.coeffs_by_parapermanent"
    )
    # SSequence(...) runs SSequence.__init__, which checks q
    assert {"lpoly._recurrence", "lpoly._s_values", "lpoly._check_q"} <= _closure(
        "defect2.a_list_theta_recurrence"
    )
    assert {"defect2._pass_weights", "defect2.c_theta", "arith.QuadExt"} <= _closure(
        "defect2.a_list_theta"
    )
    # cli reads lpoly and defect2 as modules
    assert "lpoly._composition_walk_bits" in _closure("cli._lpoly_command")


def test_allowlist_names_package_functions():
    assert SHARED <= LEDGER.keys()
