"""Rules on the package source itself."""

import ast
import importlib
from pathlib import Path

import tropico
from tropico.lattice import InvariantViolation, TropicoError

SOURCES = sorted(Path(tropico.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every check in the package
    # raises a typed error instead
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_every_private_definition_is_named_in_the_package():
    # a private function or class that no code in the package names is
    # dead, even when a test still calls it
    defined, named = [], set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((node.name, f"{path.name}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unused = [f"{where} {name}" for name, where in defined if name not in named]
    assert not unused, unused


def test_every_exception_but_invariant_violation_is_a_domain_error():
    # the CLI reports a TropicoError, and only that, as a domain error; an
    # InvariantViolation is a bug and must propagate
    exceptions = []
    for path in SOURCES:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef):
                cls = getattr(importlib.import_module(f"tropico.{path.stem}"), node.name)
                if issubclass(cls, BaseException):
                    exceptions.append(cls)
    assert InvariantViolation in exceptions and len(exceptions) > 15
    wrong = [
        f"{cls.__module__}.{cls.__name__}"
        for cls in exceptions
        if issubclass(cls, TropicoError) == (cls is InvariantViolation)
    ]
    assert not wrong, wrong
