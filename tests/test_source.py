"""Checks on the library source itself."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "partlat"
TRACING = Path(__file__).parent.parent / "bench" / "tracing.py"


def test_no_assert_statements():
    # python -O strips asserts, so library checks must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_traced_entry_points_exist():
    # The benchmark tracer rebinds these names; a missing one would only
    # show up in the slow benchmark tests.
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    missing = [f"{module}.{fn}" for module, fns in traced.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"partlat.{module}"), fn, None))]
    assert traced and missing == []
