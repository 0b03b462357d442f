"""Checks on the package source itself."""

import ast
from pathlib import Path

import dutchbook

PACKAGE = Path(dutchbook.__file__).parent


def test_package_holds_no_assert_statement():
    # python -O strips asserts, so an invariant the package relies on must
    # be enforced by code that raises
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
