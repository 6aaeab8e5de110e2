"""The traced benchmark run wraps package functions that it looks up by name
in ``perfbench/traced.py``'s ``SPANNED`` table; a package change that drops
or renames one of them must fail here, not only in the traced run."""

import ast
import importlib
from pathlib import Path

import semflow

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def spanned():
    """``SPANNED`` read from the source of traced.py, which is not run."""
    tree = ast.parse(TRACED.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANNED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("traced.py defines no SPANNED table")


def test_every_traced_name_resolves_in_its_module():
    table = spanned()
    assert table
    missing = [f"semflow.{module}.{name}" for module, names in table.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"semflow.{module}"),
                                       name, None))]
    assert missing == []
    # the provenance record of every benchmark run reads this flag
    assert isinstance(semflow.NUMBA_ENABLED, bool)
