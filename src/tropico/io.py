"""Canonical JSON encodings of the domain objects.

Rationals are emitted as gcd-reduced "p/q" strings with q > 0; keys are
sorted, so identical inputs yield byte-identical output.  The readers
report data of the wrong shape as InputError.  A reader imports the
diagram or tropical module, and fractions, only when called, so that a
command that reads only polygons does not load them.
"""

from __future__ import annotations

import functools
import itertools
import json
from json.encoder import encode_basestring_ascii

from .lattice import LatticePolygon, TropicoError


class InputError(TropicoError):
    """Malformed or unreadable input data, or an output file that cannot
    be written."""


def _reader(fn):
    """Report the KeyError, IndexError, TypeError, ValueError,
    ZeroDivisionError (a "p/0" rational) or OverflowError (an Infinity,
    which json accepts) raised while decoding data of the wrong shape as an
    InputError."""

    @functools.wraps(fn)
    def read(data, *args):
        try:
            return fn(data, *args)
        except (KeyError, IndexError, OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{fn.__name__}: {type(exc).__name__}: {exc}") from exc

    return read


def frac_str(x):
    """x as "p/q": the encoders write only ints and Fractions (a curve's,
    a polynomial's and a realization's values), in lowest terms already."""
    return f"{x.numerator}/{x.denominator}"


def dumps(obj):
    """The bytes of json.dumps(obj, sort_keys=True, separators=(",", ": "),
    indent=1), written without json's pure-Python indent encoder: one item
    per line, one more space of indent per level, "{}" and "[]" for empty
    containers, keys sorted, strings ASCII-escaped.  Keys must be strings."""
    return _encode(obj, "\n")


def _encode(obj, nl):
    """obj as dumps writes it, nl being the newline plus the indent of obj's
    own line.  A list or dict writes its items of the exact types str and
    int in its own loop and calls _encode only for the rest, so a curve
    takes one call per container, not one per item."""
    t = type(obj)
    if t is str:
        return encode_basestring_ascii(obj)
    if t is int:
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + " "
        items = []
        for v in obj:
            t = type(v)
            items.append(
                encode_basestring_ascii(v) if t is str else int.__repr__(v) if t is int
                else _encode(v, inner)
            )
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + " "
        items = []
        for k, v in sorted(obj.items()):
            t = type(v)
            items.append(encode_basestring_ascii(k) + ": " + (
                encode_basestring_ascii(v) if t is str else int.__repr__(v) if t is int
                else _encode(v, inner)
            ))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    # None, booleans, floats and subclasses of str and int as json writes
    # them, or json's TypeError for anything else
    return json.dumps(obj)


# -- polygons ---------------------------------------------------------------


def polygon_to_json(poly):
    return {"vertices": [list(v) for v in poly.vertices]}


def _refuse_booleans(values, what):
    # JSON true and false are Python's True and False, which equal 1 and 0
    for v in values:
        if type(v) is bool:
            raise InputError(f"{what} must not be booleans: {v!r}")


@_reader
def polygon_from_json(data):
    vertices = data["vertices"]
    _refuse_booleans(itertools.chain(*vertices), "vertex coordinates")
    return LatticePolygon(vertices)


def polygon_report(poly):
    # p_a, the arithmetic genus of the hyperplane class, is the number of
    # interior points, counted once
    interior = poly.interior_points()
    return {
        "double_area": poly.double_area(),
        "interior": interior,
        "boundary": poly.boundary_points(),
        "p_a": interior,
        "singularities": [[order, k] for _, order, k in poly.vertex_singularities()],
    }


# -- diagrams and markings --------------------------------------------------


def diagram_to_json(diagram):
    return {
        "floors": [{"id": f, "theta": th} for f, th in diagram.floors],
        "inf_minus": list(diagram.inf_minus),
        "inf_plus": list(diagram.inf_plus),
        "edges": [{"from": s, "to": t, "w": w} for s, t, w in diagram.edges],
    }


@_reader
def diagram_from_json(data):
    from .diagram import FloorDiagram
    floors = tuple((f["id"], f["theta"]) for f in data["floors"])
    inf_minus, inf_plus = tuple(data["inf_minus"]), tuple(data["inf_plus"])
    edges = tuple((e["from"], e["to"], e["w"]) for e in data["edges"])
    for v in (*itertools.chain(*floors, *edges), *inf_minus, *inf_plus):
        if type(v) is not int:  # a JSON integer, not a float or a boolean
            raise InputError(f"diagram ids, thetas and weights must be integers, not {v!r}")
    return FloorDiagram(floors, inf_minus, inf_plus, edges)


def _element_id(el):
    kind, idx = el
    return f"{kind}{idx}"


def _element_from_id(s):
    return (s[0], int(s[1:]))


def marking_to_json(marking):
    return {
        "labels": {
            str(marking.label_start + i): _element_id(el)
            for i, el in enumerate(marking.labels)
        }
    }


@_reader
def marking_from_json(data, diagram):
    from .diagram import Marking
    items = sorted(((int(k), v) for k, v in data["labels"].items()))
    lo = items[0][0]
    keys = [k for k, _ in items]
    if keys != list(range(lo, lo + len(keys))):
        raise InputError(f"marking labels {keys} are not consecutive integers")
    labels = tuple(_element_from_id(v) for _, v in items)
    return Marking(diagram, lo, labels)


# -- polynomials and curves -------------------------------------------------


def polynomial_to_json(poly):
    return {
        "terms": [{"i": list(e), "a": frac_str(a)} for e, a in poly.terms]
    }


@_reader
def polynomial_from_json(data):
    from fractions import Fraction

    from .tropical import TropicalPolynomial
    terms = {}
    for t in data["terms"]:
        exponent = tuple(t["i"])
        _refuse_booleans((*exponent, t["a"]), "exponents and coefficients")
        if exponent in terms:
            raise InputError(f"exponent {list(exponent)} appears in two terms")
        terms[exponent] = Fraction(t["a"])
    return TropicalPolynomial.make(terms)


def curve_to_json(curve):
    return {
        "vertices": [[frac_str(x), frac_str(y)] for x, y in curve.vertices],
        "segments": [
            {"from": s.a, "to": s.b, "w": s.weight, "dir": list(s.direction)}
            for s in curve.segments
        ],
        "rays": [
            {"base": r.base, "dir": list(r.direction), "w": r.weight}
            for r in curve.rays
        ],
        "crossings": sorted(curve.crossings),
        "newton": polygon_to_json(curve.newton),
    }


@_reader
def curve_from_json(data):
    from fractions import Fraction

    from .tropical import PlaneTropicalCurve, Ray, Segment
    vertices = data["vertices"]
    segments = [Segment(s["from"], s["to"], s["w"], tuple(s["dir"])) for s in data["segments"]]
    rays = [Ray(r["base"], tuple(r["dir"]), r["w"]) for r in data["rays"]]
    crossings = data.get("crossings", ())
    numbers = [(s.a, s.b, s.weight, *s.direction) for s in segments]
    numbers += [(r.base, r.weight, *r.direction) for r in rays]
    _refuse_booleans(itertools.chain(*vertices, *numbers, crossings),
                     "curve coordinates, indices, weights and directions")
    return PlaneTropicalCurve.build(
        [(Fraction(x), Fraction(y)) for x, y in vertices],
        segments,
        rays,
        crossings,
        polygon_from_json(data["newton"]) if data.get("newton") else None,
    )


def subdivision_to_json(subdivision):
    return {
        "cells": [polygon_to_json(c) for c in subdivision.cells],
        "segment_dual": [[list(p), list(q)] for p, q in subdivision.segment_dual],
        "ray_dual": [[list(p), list(q)] for p, q in subdivision.ray_dual],
    }


def realization_to_json(realization, curve=None):
    """``curve`` is the realization's plane curve, when the caller already has it."""
    if curve is None:
        curve = realization.curve.to_plane_curve(newton=realization.spec.polygon)
    return {
        "curve": curve_to_json(curve),
        "floors": [
            {
                "floor": f,
                "breakpoints": [[frac_str(x), frac_str(h)] for x, h in bps],
                "slopes": list(slopes),
            }
            for f, bps, slopes in realization.floor_paths
        ],
        "elevators": [
            {"edge": idx, "abscissa": frac_str(xi)}
            for idx, xi in realization.elevator_lines
        ],
    }
