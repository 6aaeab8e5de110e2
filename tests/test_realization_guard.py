"""Realization guard: ``maps.py`` reads the control variant and the base
semigroup's type only where a triple is validated
(``PerturbationTriple.__post_init__``) and where its discrete realization is
built (``_realize``).  Every other function works on the realization, so a
new base or a new kernel route is written once, not once per variant.  The
observation operator's layout is read there too, and by
``PerturbationTriple.u_dim`` for its row count: the observe step takes
C_t x through the realization, like the kernels."""

import ast
import inspect
import typing
from pathlib import Path

from semflow import maps, semigroups

ALLOWED = {"PerturbationTriple.__post_init__", "_realize"}
OBSERVE_READERS = ALLOWED | {"PerturbationTriple.u_dim"}


def variant_classes() -> set:
    """Names of the control variants and of every semigroup class."""
    controls = {c.__name__ for c in typing.get_args(maps.ControlSpec)}
    shifts = {name for name, obj in vars(semigroups).items()
              if inspect.isclass(obj) and issubclass(obj, semigroups.Semigroup)}
    return controls | shifts


def scopes(tree: ast.AST, hit):
    """(enclosing function, line) of every node for which ``hit`` holds."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if hit(node):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def observe_reads(tree: ast.AST):
    """(enclosing function, line) of every ``.observe`` attribute."""
    return scopes(tree, lambda node: isinstance(node, ast.Attribute) and node.attr == "observe")


def type_tests(tree: ast.AST):
    """(enclosing function, line) of every isinstance or issubclass call that
    names a control variant or a semigroup class."""
    names = variant_classes()

    def hit(node):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2):
            return False
        read = {n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node.args[1]) if isinstance(n, (ast.Name, ast.Attribute))}
        return bool(read & names)

    return scopes(tree, hit)


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


def test_the_observation_layout_is_read_only_by_the_triple_and_realize():
    tree = ast.parse(Path(maps.__file__).read_text(encoding="utf-8"))
    found = observe_reads(tree)
    assert {scope for scope, _ in found} == OBSERVE_READERS
    assert [(scope, line) for scope, line in found if scope not in OBSERVE_READERS] == []
    # _realize picks the kernel entries by name and wraps no closure around them
    realize = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_realize")
    assert not [node for node in ast.walk(realize)
                if node is not realize and isinstance(node, (ast.FunctionDef, ast.Lambda))]


def test_the_guard_sees_an_observe_read_elsewhere():
    source = ("def _observe(triple, free):\n"
              "    head, X, _ = free\n"
              "    return head @ triple.observe.T\n")
    assert observe_reads(ast.parse(source)) == [("_observe", 3)]
