"""Checks on the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "partlat"


def test_no_assert_statements():
    # python -O strips asserts, so library checks must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
