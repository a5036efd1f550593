"""Source-level rules for the package."""

import ast
import pathlib

import halfmed

SRC = pathlib.Path(halfmed.__file__).parent


def test_no_assert_statements_in_package():
    # invariants must raise real exceptions: ``assert`` vanishes under ``python -O``
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
