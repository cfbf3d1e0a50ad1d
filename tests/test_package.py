"""The lazy package front and the modules each CLI command loads, checked
in fresh interpreters."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tropico

SRC = str(Path(tropico.__file__).resolve().parent.parent)

PUBLIC = [
    "DiagramSpec", "DirectionData", "DualSubdivision", "FloorDiagram", "LatticePolygon",
    "Marking", "ParametrizedCurve", "PlaneTropicalCurve", "PointConfig", "Realization",
    "TropicalPolynomial", "check_balancing", "convex_hull", "corner_locus", "count",
    "cubic_triangle", "delta_invariant", "diagram", "diagram_genus", "diamond",
    "direction_data", "enumerate_diagrams", "enumerate_markings", "floor_decompose",
    "geometric_genus", "integral_length", "is_primitive", "is_transverse", "lattice",
    "legendre_transform", "lemma_1_5_check", "multiplicity", "newton_polygon_of",
    "octic_quadrilateral", "perp", "realize", "realize_stretched", "stable_intersection",
    "stable_intersection_generic", "stretch_points", "transverse_directions", "trapezium",
    "triangle", "tropical", "tropical_multiplicity", "validate", "validate_verbose",
    "verify_realization", "vertex_singularity", "weighted_count_check",
]
SUBMODULES = {"diagram", "lattice", "tropical"}


def run_fresh(code):
    """Run ``code`` in a new interpreter that imports tropico from this
    checkout; the JSON value of its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# the tropico submodules a fresh interpreter has loaded, by short name
LOADED = "sorted(m[8:] for m in sys.modules if m.startswith('tropico.'))"
# the heavy standard modules that no tropico command may load: dataclasses
# pulls in inspect, and inspect ast, dis and tokenize
HEAVY = "sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules)"
FRACTIONS = "'fractions' in sys.modules"


def test_import_tropico_loads_no_submodule():
    assert run_fresh(f"import json, sys\nimport tropico\nprint(json.dumps({LOADED}))") == []


@pytest.mark.parametrize(
    "argv, error, loaded",
    [
        (["polygon", "report", "{t3}"], None, ["cli", "io", "lattice"]),
        (["polygon", "report", "{segment}"], "DegeneratePolygon", ["cli", "io", "lattice"]),
        (["count", "--polygon", "{t3}", "--genus", "0", "--beta-minus", "3"], None,
         ["cli", "io", "lattice", "peel"]),
        (["count", "--polygon", "{t3}", "--genus", "0", "--alpha-plus", "1"], "SideBoundaryCondition",
         ["cli", "io", "lattice", "peel"]),
        (["count", "--polygon", "{t3}", "--genus", "0", "--beta-minus", "3", "--explain"], None,
         ["cli", "diagram", "io", "lattice", "peel"]),
        (["diagrams", "--polygon", "{t3}", "--genus", "1", "--beta-minus", "3", "--markings"], None,
         ["cli", "diagram", "io", "lattice", "peel"]),
        (["realize", "--polygon", "{t1}", "--genus", "0", "--beta-minus", "1", "--diagram",
          "{diagram}", "--marking", "{marking}", "--svg", "{svg}"], None,
         ["cli", "diagram", "io", "lattice", "peel", "realize", "render", "tropical"]),
        (["tropicalize", "--poly", "{line}", "--subdivision", "--svg", "{svg}"], None,
         ["cli", "io", "lattice", "render", "tropical"]),
    ],
    ids=["polygon", "polygon-degenerate", "count", "count-side-boundary-condition",
         "count-explain", "diagrams", "realize", "tropicalize"],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, error, loaded):
    # counting never loads the geometry layer (tropical, realize, render),
    # nor does reporting a domain error, and a count without --explain
    # never loads diagram; tropicalize never loads realize,
    # fractions comes only with the geometry layer, and no command loads
    # dataclasses or inspect
    files = {
        "t1": {"vertices": [[0, 0], [1, 0], [0, 1]]},
        "t3": {"vertices": [[0, 0], [3, 0], [0, 3]]},
        "segment": {"vertices": [[0, 0], [1, 1], [2, 2]]},
        "line": {"terms": [{"i": i, "a": "0/1"} for i in ([0, 0], [1, 0], [0, 1])]},
        # the one marked floor diagram of a tropical line
        "diagram": {"floors": [{"id": 0, "theta": 0}], "inf_minus": [1], "inf_plus": [],
                    "edges": [{"from": 1, "to": 0, "w": 1}]},
        "marking": {"labels": {"1": "e0", "2": "f0"}},
    }
    paths = {name: tmp_path / f"{name}.json" for name in files}
    for name, value in files.items():
        paths[name].write_text(json.dumps(value))
    argv = [a.format(svg=tmp_path / "out.svg", **paths) for a in argv]
    rc, out, modules, heavy, fractions = run_fresh(
        "import io, json, sys\nfrom tropico import cli\n"
        f"sys.stdout = io.StringIO()\nrc = cli.cmd({argv!r})\nout = sys.stdout.getvalue()\n"
        f"sys.stdout = sys.__stdout__\nprint(json.dumps([rc, out, {LOADED}, {HEAVY}, {FRACTIONS}]))"
    )
    if error is None:
        assert rc == 0
    else:
        assert (rc, json.loads(out)["error"]) == (1, error)
    assert modules == loaded
    assert heavy == []
    assert fractions == ("tropical" in loaded)


def test_public_names_resolve_to_their_home_objects_whichever_comes_first():
    # each name is touched first in a fresh package, that is, with every
    # tropico module dropped from sys.modules; every name must then be the
    # object its home module binds, tropico.realize the function
    got = run_fresh(
        "import importlib, json, sys, types\n"
        f"PUBLIC = {PUBLIC!r}\nSUBMODULES = {sorted(SUBMODULES)!r}\n"
        "wrong = []\n"
        "for first in PUBLIC:\n"
        "    for m in [m for m in sys.modules if m == 'tropico' or m.startswith('tropico.')]:\n"
        "        del sys.modules[m]\n"
        "    tropico = importlib.import_module('tropico')\n"
        "    getattr(tropico, first)\n"
        "    for name in PUBLIC:\n"
        "        obj = getattr(tropico, name)\n"
        "        if name in SUBMODULES:\n"
        "            ok = obj is sys.modules['tropico.' + name]\n"
        "        else:\n"
        "            ok = (not isinstance(obj, types.ModuleType)\n"
        "                  and obj is getattr(sys.modules[obj.__module__], name))\n"
        "        if not ok:\n"
        "            wrong.append([first, name])\n"
        "print(json.dumps([tropico.__all__, sorted(dir(tropico)), wrong]))"
    )
    names, listed, wrong = got
    assert names == PUBLIC
    assert set(PUBLIC) <= set(listed)
    assert wrong == []


def test_star_import_binds_every_public_name():
    names, kinds = run_fresh(
        "import json, types\nfrom tropico import *\n"
        "import tropico\n"
        "print(json.dumps([sorted(n for n in tropico.__all__ if n in globals()),"
        " [type(realize).__name__, isinstance(tropical, types.ModuleType)]]))"
    )
    assert names == PUBLIC
    assert kinds == ["function", True]


# every name that peel defines; diagram binds each of them too
PEEL = [
    "DiagramError", "DiagramSpec", "Disconnected", "SideBoundaryCondition", "_nseq_add",
    "_nseq_binom", "_nseq_sub", "_peel_count", "_radices", "_trim", "count", "multiplicity",
    "nseq", "nseq_I", "nseq_Ipow", "nseq_abs", "weight_multiset",
]


def test_the_count_path_has_one_object_per_name_in_peel_diagram_and_the_package():
    from tropico import diagram, peel

    defined = sorted(
        name for name, obj in vars(peel).items()
        if getattr(obj, "__module__", None) == "tropico.peel"
    )
    assert defined == PEEL
    for name in PEEL:
        assert getattr(diagram, name) is getattr(peel, name), name
        if name in tropico.__all__:
            assert getattr(tropico, name) is getattr(peel, name), name
    assert [n for n in PEEL if n in tropico.__all__] == ["DiagramSpec", "count", "multiplicity"]
