"""Realization guard: ``maps.py`` reads the control variant and the base
semigroup's type only where a triple is validated
(``PerturbationTriple.__post_init__``) and where its discrete realization is
built (``_realize``).  Every other function works on the realization, so a
new base or a new kernel route is written once, not once per variant."""

import ast
import inspect
import typing
from pathlib import Path

from semflow import maps, semigroups

ALLOWED = {"PerturbationTriple.__post_init__", "_realize"}


def variant_classes() -> set:
    """Names of the control variants and of every semigroup class."""
    controls = {c.__name__ for c in typing.get_args(maps.ControlSpec)}
    shifts = {name for name, obj in vars(semigroups).items()
              if inspect.isclass(obj) and issubclass(obj, semigroups.Semigroup)}
    return controls | shifts


def type_tests(tree: ast.AST):
    """(enclosing function, line) of every isinstance or issubclass call that
    names a control variant or a semigroup class."""
    names = variant_classes()
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2:
            read = {n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(node.args[1]) if isinstance(n, (ast.Name, ast.Attribute))}
            if read & names:
                found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_variants_are_read_only_in_validation_and_realize():
    tree = ast.parse(Path(maps.__file__).read_text(encoding="utf-8"))
    found = type_tests(tree)
    assert {scope for scope, _ in found} == ALLOWED
    assert [(scope, line) for scope, line in found if scope not in ALLOWED] == []


def test_the_guard_sees_a_type_test_elsewhere():
    source = ("def u_dim(triple):\n"
              "    if isinstance(triple.control, (BoundedControl, IdentityControl)):\n"
              "        return 1\n"
              "def picks(method):\n"
              "    return isinstance(method, DirectSolve)\n")
    assert type_tests(ast.parse(source)) == [("u_dim", 2)]
