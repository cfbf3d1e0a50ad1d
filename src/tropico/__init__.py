"""Exact-arithmetic enumeration of curves on toric surfaces via floor
diagrams, with construction and analysis of the plane tropical curves the
diagrams encode.

``import tropico`` loads no submodule: the first use of a public name
imports its home module and binds all of that module's names here.
"""

import importlib

# public name -> home module; diagram, lattice and tropical are exported too
_HOME = {
    name: home
    for home, names in (
        ("lattice", "DirectionData LatticePolygon convex_hull cubic_triangle diamond "
         "direction_data integral_length is_primitive is_transverse octic_quadrilateral "
         "perp transverse_directions trapezium triangle vertex_singularity"),
        ("peel", "DiagramSpec count multiplicity"),
        ("diagram", "FloorDiagram Marking diagram_genus enumerate_diagrams enumerate_markings "
         "lemma_1_5_check validate validate_verbose weighted_count_check"),
        ("tropical", "DualSubdivision ParametrizedCurve PlaneTropicalCurve TropicalPolynomial "
         "check_balancing corner_locus delta_invariant geometric_genus legendre_transform "
         "newton_polygon_of stable_intersection stable_intersection_generic "
         "tropical_multiplicity"),
        ("realize", "PointConfig Realization floor_decompose realize realize_stretched "
         "stretch_points verify_realization"),
    )
    for name in names.split()
}
__all__ = sorted([*_HOME, "diagram", "lattice", "tropical"])
__version__ = "0.1.0"


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _HOME.get(name, name)
    module = importlib.import_module(f"{__name__}.{home}")  # binds the submodule here
    globals().update((n, getattr(module, n)) for n, h in _HOME.items() if h == home)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
