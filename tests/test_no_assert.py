"""No ``assert`` statement in the package: ``python -O`` strips them, so none
may carry correctness.  Invariants are typed errors or pinned by tests."""

import ast
from pathlib import Path

import adoforge

PACKAGE = Path(adoforge.__file__).parent


def test_no_assert_statements_under_src():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
