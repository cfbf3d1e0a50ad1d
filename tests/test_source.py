"""Rules on the package source itself."""

import ast
from pathlib import Path

import tropico


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every check in the package
    # raises a typed error instead
    found = []
    for path in sorted(Path(tropico.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
