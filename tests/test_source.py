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


def test_only_record_guards_its_attributes():
    # an immutable value class derives from lattice.Record, which alone
    # refuses assignment and deletion and lets copy and pickle through
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name in (
                        "__setattr__", "__delattr__", "__reduce__"
                    ):
                        found.append(f"{path.stem}.{node.name}.{item.name}")
    assert found == ["lattice.Record.__setattr__", "lattice.Record.__delattr__"]


# every name that peel, the count path's home, defines
PEEL = [
    "DiagramError", "DiagramSpec", "SideBoundaryCondition", "_clear_tables", "_grown", "_hold",
    "_nseq_add", "_nseq_binom", "_nseq_sub", "_peel_count", "_radices", "_rows", "_subs",
    "_trim", "count", "nseq", "nseq_I", "nseq_Ipow",
]
# the sibling names a module binds without using them: perfbench reads
# diagram.nseq_Ipow and wraps diagram.direction_data
UNUSED_IMPORTS = ["diagram.direction_data", "diagram.nseq_Ipow"]


def test_each_name_has_one_home():
    # a module imports a sibling's name only to use it, so no module
    # re-exports another's names
    from tropico import peel

    defined = sorted(
        name for name, obj in vars(peel).items()
        if getattr(obj, "__module__", None) == "tropico.peel"
    )
    assert defined == PEEL
    unused = []
    for path in SOURCES:
        imported, used = [], set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported += [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                used.add(node.id)
        unused += [f"{path.stem}.{name}" for name in imported if name not in used]
    assert sorted(unused) == UNUSED_IMPORTS


def _relative_imports(path):
    """The sibling modules that a module imports, at its top or inside a
    function: ``from . import x`` names x, ``from .x import y`` names x."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else [a.name for a in node.names])
    return out


def test_relative_imports_form_no_cycle():
    # the modules import downward only, lazy imports inside functions
    # included, so every module can be read without the ones above it
    graph = {path.stem: _relative_imports(path) for path in SOURCES}
    assert graph["peel"] == {"lattice"} and not graph["lattice"]
    order = []  # the modules whose imports are all placed, bottom first
    while len(order) < len(graph):
        ready = sorted(m for m, deps in graph.items() if m not in order and deps <= set(order))
        assert ready, {m: sorted(deps - set(order)) for m, deps in graph.items() if m not in order}
        order += ready
