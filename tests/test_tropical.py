import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from tropico.diagram import enumerate_diagrams, enumerate_markings
from tropico import lattice, tropical
from tropico.lattice import (
    DegeneratePolygon,
    convex_hull,
    cubic_triangle,
    det,
    diamond,
    dot,
    integral_length,
    perp,
    scale,
    sub,
    trapezium,
    triangle,
)
from tropico.peel import DiagramSpec
from tropico.realize import realize_stretched
from tropico.tropical import (
    DualSubdivision,
    InvariantViolation,
    NonReduced,
    NonTransverse,
    NotClosed,
    NotTrivalent,
    PEdge,
    ParametrizedCurve,
    PlaneTropicalCurve,
    Ray,
    Segment,
    SegmentSupport,
    TropicalError,
    TropicalPolynomial,
    UnsupportedShape,
    check_balancing,
    corner_locus,
    delta_invariant,
    abstract_genus,
    geometric_genus,
    legendre_transform,
    newton_polygon_of,
    random_polynomial,
    rational_primitive,
    stable_intersection,
    stable_intersection_generic,
    tropical_multiplicity,
    _integral_frame,
    _intersect_pieces,
    _is_parallelogram,
    _split_piece,
    _upper_cells,
)


def tropical_line(a=0, b=0, c=0):
    return TropicalPolynomial.make({(0, 0): a, (1, 0): b, (0, 1): c})


def weight_two_bar_polynomial():
    """Diamond support, lifted to crease along the horizontal diameter:
    the corner locus is an X with a vertical weight-2 bar."""
    return TropicalPolynomial.make(
        {(0, 1): 0, (2, 1): 0, (1, 1): 0, (1, 2): -1, (1, 0): -1}
    )


def interior_point_triangle_polynomial():
    """Triangle with one interior point, trivial subdivision."""
    return TropicalPolynomial.make({(0, 0): 0, (2, 1): 0, (1, 2): 0})


def crossing_bar_realization():
    """Genus-0 curve on the r=1, a=3, b=1 trapezium whose weight-2 finite
    elevator crosses the middle floor: delta = (2-1) + 2."""
    tz = trapezium(1, 3, 1)
    spec = DiagramSpec(tz, (0, 1), 0, (), (), (1,), (4,))
    for diag in enumerate_diagrams(spec):
        if sorted(w for _, _, w in diag.finite_edges()) != [1, 2]:
            continue
        for marking in enumerate_markings(diag, spec):
            realization, _ = realize_stretched(diag, marking, spec, seed=2)
            curve = realization.curve.to_plane_curve(newton=spec.polygon)
            try:
                if delta_invariant(curve) == 3 and len(curve.crossings) == 1:
                    return curve
            except UnsupportedShape:
                continue
    raise AssertionError("fixture not found")


def test_corner_locus_line():
    curve, sub_ = corner_locus(tropical_line())
    assert len(curve.vertices) == 1
    assert curve.vertices[0] == (0, 0)
    dirs = sorted((r.direction, r.weight) for r in curve.rays)
    assert dirs == [((-1, 0), 1), ((0, -1), 1), ((1, 1), 1)]
    assert not curve.segments
    assert check_balancing(curve)
    assert newton_polygon_of(curve) == triangle(1)


def test_corner_locus_square_term():
    poly = TropicalPolynomial.make({(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 1})
    curve, subdivision = corner_locus(poly)
    assert len(curve.rays) == 4
    assert len(curve.segments) == 1
    cells = sorted(tuple(sorted(c.vertices)) for c in subdivision.cells)
    assert cells == [
        ((0, 0), (0, 1), (1, 1)),
        ((0, 0), (1, 0), (1, 1)),
    ]
    assert sorted(curve.vertices) == [(-1, 0), (0, -1)]


def test_corner_locus_generic_conic():
    # strictly concave lift: all six points active, four unimodular cells,
    # four trivalent vertices, three bounded edges
    terms = {}
    for i in range(3):
        for j in range(3 - i):
            terms[(i, j)] = Fraction(-(7 * i * i + 9 * j * j + 5 * i * j), 2) + Fraction(
                i + 2 * j, 97
            )
    curve, subdivision = corner_locus(TropicalPolynomial.make(terms))
    assert len(subdivision.cells) == 4
    assert all(c.double_area() == 1 for c in subdivision.cells)
    assert len(curve.vertices) == 4
    assert len(curve.segments) == 3
    assert check_balancing(curve)


def test_corner_locus_rejects_segment_support():
    with pytest.raises(SegmentSupport):
        corner_locus(TropicalPolynomial.make({(0, 0): 0, (1, 1): 0, (2, 2): 3}))


def upper_cells_brute_force(poly_terms):
    """Every plane through three non-collinear lifted points that no lifted
    point lies above, keyed by the points on it: O(n^4), the definition."""
    pts = [e for e, _ in poly_terms]
    lift = dict(poly_terms)
    cells = {}
    for p0, p1, p2 in itertools.combinations(pts, 3):
        m00, m01 = p1[0] - p0[0], p1[1] - p0[1]
        m10, m11 = p2[0] - p0[0], p2[1] - p0[1]
        dd = m00 * m11 - m01 * m10
        if dd == 0:
            continue
        r0 = lift[p1] - lift[p0]
        r1 = lift[p2] - lift[p0]
        gx = Fraction(r0 * m11 - r1 * m01, dd)
        gy = Fraction(r1 * m00 - r0 * m10, dd)
        c = lift[p0] - gx * p0[0] - gy * p0[1]
        values = [gx * q[0] + gy * q[1] + c - lift[q] for q in pts]
        if min(values) >= 0:
            cells[frozenset(q for q, v in zip(pts, values) if v == 0)] = (gx, gy, c)
    return cells


def planes(cells):
    """The (gx, gy, c) of each cell of _upper_cells, once its polygon is
    checked to be the convex hull of its points."""
    for eq, (_, _, _, cell) in cells.items():
        assert cell == convex_hull(eq)
    return {eq: plane[:3] for eq, plane in cells.items()}


def assert_hull_matches(terms):
    terms = tuple((e, Fraction(a)) for e, a in terms.items())
    assert planes(_upper_cells(terms)) == upper_cells_brute_force(terms)
    flipped = tuple((e, -a) for e, a in terms)  # the lower hull, as legendre uses it
    assert planes(_upper_cells(flipped)) == upper_cells_brute_force(flipped)


def test_upper_cells_match_brute_force_random():
    rng = random.Random(31)
    cases = [(d, denom, spread) for d in (2, 3) for denom in (1, 3, 7) for spread in (2, 5, 40)]
    cases += [(4, 1, 40), (4, 3, 5), (4, 7, 2)]
    for d, denom, spread in cases:
        poly = random_polynomial(rng, triangle(d), denom=denom, spread=spread)
        assert_hull_matches(dict(poly.terms))
    for _ in range(40):
        support = {(rng.randint(0, 5), rng.randint(0, 4)) for _ in range(rng.randint(3, 10))}
        assert_hull_matches({p: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for p in support})


def test_upper_cells_degenerate_lifts():
    zeros = {p: 0 for p in triangle(4).lattice_points()}
    assert_hull_matches(zeros)
    assert list(_upper_cells(tuple(zeros.items()))) == [frozenset(zeros)]
    square = {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 0}
    assert_hull_matches(square)
    assert len(_upper_cells(tuple(square.items()))) == 1
    assert_hull_matches({**square, (1, 1): 1})
    assert_hull_matches({**square, (1, 1): -1})
    # supports that miss lattice points, with interior and edge points
    # lifted onto, above and below the plane of the corners
    for lift in (-1, 0, 1):
        assert_hull_matches({(0, 0): 0, (4, 0): 0, (0, 4): 0, (1, 1): lift})
        assert_hull_matches({(0, 0): 0, (6, 0): 0, (0, 3): 0, (3, 0): lift, (2, 1): lift})
        assert_hull_matches({(0, 0): 0, (2, 0): 0, (2, 2): 0, (0, 2): 0, (1, 1): lift, (2, 1): 0})
    # a grid under a concave paraboloid: every cell unimodular
    assert_hull_matches({(i, j): -(i * i + j * j) for i in range(4) for j in range(4)})
    # collinear supports
    assert _upper_cells((((0, 0), 0), ((1, 1), 0), ((2, 2), 3))) == {}
    assert _upper_cells((((0, 0), 0), ((3, 0), 1))) == {}


def test_corner_locus_rejects_a_broken_tiling(monkeypatch):
    monkeypatch.setattr(DualSubdivision, "check_tiling", lambda self: False)
    with pytest.raises(InvariantViolation):
        corner_locus(tropical_line())


def test_corner_locus_rejects_an_edge_off_its_dual(monkeypatch):
    # tilt one cell's plane: its vertex moves off the normal line of the
    # shared edge
    poly = TropicalPolynomial.make({(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 1})
    cells = _upper_cells(poly.terms)
    eq = min(cells, key=sorted)
    gx, gy, c, cell = cells[eq]
    monkeypatch.setattr(tropical, "_upper_cells", lambda terms: {**cells, eq: (gx + 1, gy, c, cell)})
    with pytest.raises(InvariantViolation, match="is not orthogonal to its dual"):
        corner_locus(poly)


def corner_locus_reference(poly):
    """Corner locus of a tropical polynomial with its dual subdivision.

    The subdivision is the projection of the upper convex hull of the
    lifted support {(I, a_I)}; the curve is its dual graph: one vertex per
    2-cell at the point where that cell's terms are simultaneously maximal,
    one bounded edge per interior edge, one ray per boundary edge, with
    weights the integral lengths of the dual edges.
    """
    if not poly.spans_plane():
        raise SegmentSupport("support of the polynomial is collinear")
    newton = poly.newton_polygon()
    cells = _upper_cells(poly.terms)
    eqsets = sorted(cells, key=lambda s: sorted(s))
    cell_polys = [convex_hull(s) for s in eqsets]
    lift = dict(poly.terms)

    vertices = []
    for eq, cp in zip(eqsets, cell_polys):
        p0 = cp.vertices[0]
        p1 = cp.vertices[1]
        p2 = cp.vertices[-1]
        m = ((p1[0] - p0[0], p1[1] - p0[1]), (p2[0] - p0[0], p2[1] - p0[1]))
        rhs = (lift[p0] - lift[p1], lift[p0] - lift[p2])
        dd = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        x = Fraction(rhs[0] * m[1][1] - rhs[1] * m[0][1], dd)
        y = Fraction(rhs[1] * m[0][0] - rhs[0] * m[1][0], dd)
        vertices.append((x, y))

    segments, segment_dual = [], []
    for i, j in itertools.combinations(range(len(eqsets)), 2):
        common = eqsets[i] & eqsets[j]
        if len(common) < 2:
            continue
        ends = sorted(common)
        p, q = ends[0], ends[-1]
        if sub(q, p) == (0, 0):
            continue
        w = lattice.integral_length(p, q)
        direction = rational_primitive(sub(vertices[j], vertices[i]))
        if dot(direction, sub(q, p)) != 0:
            raise InvariantViolation(f"curve edge {i}-{j} is not orthogonal to its dual {p}-{q}")
        segments.append(Segment(i, j, w, direction))
        segment_dual.append((p, q))

    rays, ray_dual = [], []
    for idx, cp in enumerate(cell_polys):
        for p, q in cp.edges():
            host = _boundary_edge_through(newton, p, q)
            if host is None:
                continue
            # ray direction: primitive outward normal of the polygon edge
            hp, hq = host
            direction = rational_primitive(scale(perp(sub(hq, hp)), -1))
            rays.append(Ray(idx, direction, lattice.integral_length(p, q)))
            ray_dual.append((p, q))

    crossings = set()
    for idx, cp in enumerate(cell_polys):
        if _is_parallelogram(cp):
            crossings.add(idx)

    curve = PlaneTropicalCurve(
        tuple(vertices), tuple(segments), tuple(rays), frozenset(crossings), newton
    )
    subdivision = DualSubdivision(newton, tuple(cell_polys), tuple(segment_dual), tuple(ray_dual))
    if not subdivision.check_tiling():
        raise InvariantViolation("cells do not tile the Newton polygon")
    return curve, subdivision


def _boundary_edge_through(poly, p, q):
    """The polygon edge containing the segment pq of the polygon, if any:
    the edge whose line holds both p and q."""
    for a, b in poly.edges():
        e = sub(b, a)
        if det(e, sub(p, a)) == 0 and det(e, sub(q, a)) == 0:
            return (a, b)
    return None


def _locus_outcome(fn, poly):
    try:
        return fn(poly)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)


def reference_corpus(rng):
    """Seeded polynomials on T1..T8 and three other polygons: flat lifts,
    lifts -(i^2 + 2 j^2) that cut unit squares (crossings), random lifts
    with denominators 1, 3 and 7, lifts in {-1, 0, 1} (many ties), sparse
    supports (some collinear) and Fraction lifts on random point sets."""
    shapes = [triangle(d) for d in range(1, 9)] + [diamond(), trapezium(2, 3, 1), cubic_triangle()]
    for shape in shapes:
        points = shape.lattice_points()
        yield TropicalPolynomial.make({p: 0 for p in points})
        yield TropicalPolynomial.make({(i, j): -(i * i + 2 * j * j) for i, j in points})
        for denom, spread in ((1, 40), (3, 5), (7, 40), (1, 2)):
            for _ in range(4):
                yield random_polynomial(rng, shape, denom=denom, spread=spread)
        for _ in range(16):
            yield TropicalPolynomial.make({p: rng.randint(-1, 1) for p in points})
        for _ in range(16):
            support = rng.sample(points, rng.randint(1, len(points)))
            yield TropicalPolynomial.make({p: rng.randint(-3, 3) for p in support})
        for _ in range(8):
            support = {(rng.randint(0, 6), rng.randint(0, 5)) for _ in range(rng.randint(2, 12))}
            yield TropicalPolynomial.make(
                {p: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for p in support}
            )
    for k in range(1, 6):
        yield TropicalPolynomial.make({(i, 2 * i): rng.randint(-3, 3) for i in range(k)})


def test_corner_locus_matches_the_reference():
    rng = random.Random(12)
    outcomes = []
    for poly in reference_corpus(rng):
        got = _locus_outcome(corner_locus, poly)
        assert got == _locus_outcome(corner_locus_reference, poly), poly
        outcomes.append(got)
    raised = [o for o in outcomes if isinstance(o[0], type)]
    assert len(outcomes) >= 600
    assert {o[0] for o in raised} == {SegmentSupport}
    assert 20 < len(raised) < len(outcomes) // 4
    assert sum(len(curve.crossings) for curve, _ in outcomes if not isinstance(curve, type)) > 100


def test_duality_orthogonality_and_weights():
    rng = random.Random(9)
    for _ in range(20):
        poly = random_polynomial(rng, triangle(3))
        curve, subdivision = corner_locus(poly)
        for seg, (p, q) in zip(curve.segments, subdivision.segment_dual):
            assert dot(seg.direction, sub(q, p)) == 0
            assert seg.weight == integral_length(p, q)
        for ray, (p, q) in zip(curve.rays, subdivision.ray_dual):
            assert dot(ray.direction, sub(q, p)) == 0
            assert ray.weight == integral_length(p, q)
        assert sum(c.double_area() for c in subdivision.cells) == 2 * 9 // 2


def test_balancing_random_and_broken():
    rng = random.Random(4)
    for _ in range(50):
        d = rng.randint(1, 3)
        curve, _ = corner_locus(random_polynomial(rng, triangle(d)))
        assert check_balancing(curve)
    line, _ = corner_locus(tropical_line())
    # the record itself: build refuses rays that do not trace the polygon
    broken = PlaneTropicalCurve(
        line.vertices,
        line.segments,
        (Ray(0, (-1, 0), 2), Ray(0, (0, -1), 1), Ray(0, (1, 1), 1)),
        line.crossings,
        line.newton,
    )
    assert not check_balancing(broken)


def test_newton_polygon_round_trip():
    rng = random.Random(13)
    for poly_shape in (triangle(1), triangle(3), diamond(), trapezium(2, 2, 1)):
        for _ in range(5):
            poly = random_polynomial(rng, poly_shape)
            curve, _ = corner_locus(poly)
            assert newton_polygon_of(curve) == poly.newton_polygon()


def test_newton_polygon_scaled_line_circuit():
    base, _ = corner_locus(tropical_line())
    scaled = PlaneTropicalCurve.build(
        base.vertices,
        (),
        [Ray(0, (-1, 0), 3), Ray(0, (0, -1), 3), Ray(0, (1, 1), 3)],
        newton=triangle(3),
    )
    assert newton_polygon_of(scaled) == triangle(3)
    # without an anchor the circuit is reconstructed up to translation
    free = PlaneTropicalCurve.build(
        base.vertices,
        (),
        [Ray(0, (-1, 0), 3), Ray(0, (0, -1), 3), Ray(0, (1, 1), 3)],
    )
    got = newton_polygon_of(free)
    anchor = sub(triangle(3).vertices[0], got.vertices[0])
    assert got.translate(anchor) == triangle(3)


def test_exponents_must_be_lattice_points():
    # the rule LatticePolygon applies to its vertices: 1.0 is 1, while 1.9
    # and "1" are rejected instead of being read as 1
    assert TropicalPolynomial.make({(1.0, 0): 0, (0, 1): 0}).support == ((0, 1), (1, 0))
    for exponent in ((1.9, 0), ("1", 0), (0, Fraction(1, 2))):
        with pytest.raises(TropicalError, match="not a lattice point"):
            TropicalPolynomial.make({exponent: 0, (0, 0): 0})
        with pytest.raises(TropicalError, match="not a lattice point"):
            legendre_transform({exponent: 0, (0, 0): 0, (0, 1): 0})


def test_legendre_single_point():
    lt = legendre_transform({(0, 0): 0})
    assert len(lt.pieces) == 1
    assert lt((5, -7)) == 0


def test_legendre_two_points():
    lt = legendre_transform({(0, 0): 0, (1, 0): 0})
    assert len(lt.pieces) == 2
    assert lt((2, 3)) == 2
    assert lt((-1, 3)) == 0
    # split along p_x = 0
    assert max(lt.pieces, key=lambda piece: piece.value((1, 0))).gradient == (1, 0)
    assert max(lt.pieces, key=lambda piece: piece.value((-1, 0))).gradient == (0, 0)


def test_legendre_square_coefficients():
    # coefficient function of max{0, x, y, x+y+1}
    lt = legendre_transform({(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): -1})
    assert sorted(p.gradient for p in lt.pieces) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # sample agreement with the direct max formula
    f = {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): -1}
    for p in [(0, 0), (2, 1), (-3, 5), (Fraction(1, 2), Fraction(-7, 3))]:
        direct = max(p[0] * x[0] + p[1] * x[1] - v for x, v in f.items())
        assert lt(p) == direct


def test_delta_weight_two_bar():
    curve, _ = corner_locus(weight_two_bar_polynomial())
    weights = sorted(s.weight for s in curve.segments)
    assert weights == [2]
    assert delta_invariant(curve) == 1
    assert curve.newton.interior_points() == 1
    assert geometric_genus(curve) == 0


def test_delta_interior_point_triangle():
    curve, _ = corner_locus(interior_point_triangle_polynomial())
    assert delta_invariant(curve) == 1
    assert geometric_genus(curve) == 0
    assert curve.newton == cubic_triangle()


def test_delta_crossing_bar():
    curve = crossing_bar_realization()
    assert delta_invariant(curve) == 3
    assert curve.newton.interior_points() == 3
    assert geometric_genus(curve) == 0
    assert any(s.weight == 2 for s in curve.segments)


def test_genus_equivalence_lemma():
    fixtures = [corner_locus(weight_two_bar_polynomial())[0], corner_locus(interior_point_triangle_polynomial())[0], crossing_bar_realization()]
    for curve in fixtures:
        pa = curve.newton.interior_points()
        assert pa - delta_invariant(curve) == abstract_genus(curve)


def test_genus_mismatch_is_a_domain_error():
    # a curve built with a Newton polygon that is not the dual of its rays
    # reaches the genus cross-check: bad input, not a broken identity (the
    # record itself, since build refuses such a polygon)
    line = (Ray(0, (-1, 0), 1), Ray(0, (0, -1), 1), Ray(0, (1, 1), 1))
    curve = PlaneTropicalCurve(((Fraction(0), Fraction(0)),), (), line, frozenset(), triangle(3))
    with pytest.raises(TropicalError, match="genus mismatch"):
        geometric_genus(curve)


def test_build_refuses_a_polygon_its_rays_do_not_trace():
    line = [Ray(0, (-1, 0), 1), Ray(0, (0, -1), 1), Ray(0, (1, 1), 1)]
    # the circuit's polygon, at any translation, and a circuit of parallel rays
    for rays, newton in (
        (line, triangle(1)),
        (line, triangle(1).translate((4, -7))),
        ([Ray(0, u, 3) for _, u, _ in line], triangle(3)),
        (line + line + line, triangle(3)),
    ):
        assert PlaneTropicalCurve.build([(0, 0)], (), rays, newton=newton).newton == newton
    weighted = [Ray(0, (-1, 0), 2), Ray(0, (0, -1), 1), Ray(0, (1, 1), 1)]
    for rays, newton in (
        (line, triangle(3)),
        (line, diamond()),
        (weighted, triangle(1)),
        (line + [Ray(0, (2, 1), 1), Ray(0, (-2, -1), 1)], triangle(1)),
        # a weight 0 or -1, or a direction that is not primitive, is refused
        # even where the summed weights per direction match
        (line + [Ray(0, (1, 0), 0)], triangle(1)),
        (line + [Ray(0, (1, 0), 1), Ray(0, (1, 0), -1)], triangle(1)),
        (line + [Ray(0, (-1, 0), 1), Ray(0, (-1, 0), -1)], triangle(1)),
        ([Ray(0, (-2, 0), 1), Ray(0, (0, -2), 1), Ray(0, (2, 2), 1)], triangle(2)),
        ([], triangle(1)),
    ):
        with pytest.raises(TropicalError, match="ray circuit does not trace the Newton polygon"):
            PlaneTropicalCurve.build([(0, 0)], (), rays, newton=newton)


def test_delta_smooth_curve():
    # unimodular triangulation, no weights > 1: delta 0, genus p_a
    terms = {}
    for i in range(4):
        for j in range(4 - i):
            terms[(i, j)] = Fraction(-(5 * i * i + 7 * j * j + 3 * i * j), 3) + Fraction(
                2 * i + j, 89
            )
    curve, subdivision = corner_locus(TropicalPolynomial.make(terms))
    assert all(c.double_area() == 1 for c in subdivision.cells)
    assert delta_invariant(curve) == 0
    assert geometric_genus(curve) == 1 == triangle(3).interior_points()


def test_delta_unsupported_shape():
    # trapezoidal cell: 4-valent vertex that is not a crossing
    poly = TropicalPolynomial.make({(0, 0): 0, (2, 0): 0, (3, 1): 0, (0, 1): 0})
    curve, subdivision = corner_locus(poly)
    assert len(curve.vertices) == 1
    with pytest.raises(UnsupportedShape):
        delta_invariant(curve)


def test_delta_non_reduced():
    # two coincident tropical lines: every ray doubled as two unit pieces
    line, _ = corner_locus(tropical_line())
    doubled = PlaneTropicalCurve.build(
        line.vertices,
        (),
        [Ray(0, u, 1) for u in ((-1, 0), (0, -1), (1, 1))] * 2,
    )
    with pytest.raises(NonReduced):
        delta_invariant(doubled)


def test_dual_polygons_that_do_not_close_raise_not_closed():
    # an unbalanced vertex: its turned edge vectors do not close up
    corner = PlaneTropicalCurve(
        ((Fraction(0), Fraction(0)),), (), (Ray(0, (1, 0), 1), Ray(0, (0, 1), 1)), frozenset(),
        triangle(1),
    )
    with pytest.raises(NotClosed) as caught:
        delta_invariant(corner)
    assert str(caught.value) == "vertex 0 is not balanced"
    # the same rays as an open circuit at infinity
    for make in (
        lambda: PlaneTropicalCurve.build([(0, 0)], (), [Ray(0, (1, 0), 1), Ray(0, (0, 1), 1)]),
        lambda: newton_polygon_of(corner),
    ):
        with pytest.raises(NotClosed) as caught:
            make()
        assert str(caught.value) == "weighted ray circuit does not close: drift (-1, 1)"
    weighted = [Ray(0, (1, 0), 2), Ray(0, (0, 1), 1), Ray(0, (1, 0), 1), Ray(0, (-1, -1), 1)]
    with pytest.raises(NotClosed) as caught:
        PlaneTropicalCurve.build([(0, 0)], (), weighted)
    assert str(caught.value) == "weighted ray circuit does not close: drift (0, 2)"
    with pytest.raises(NotClosed) as caught:
        PlaneTropicalCurve.build([(0, 0)], (), ())
    assert str(caught.value) == "curve has no rays"
    # a vertex with no pieces has no dual polygon at all
    line, _ = corner_locus(tropical_line())
    lonely = PlaneTropicalCurve.build(line.vertices + ((5, 5),), (), line.rays, newton=line.newton)
    with pytest.raises(DegeneratePolygon) as caught:
        delta_invariant(lonely)
    assert str(caught.value) == "need at least 3 non-collinear vertices"


def test_tropical_multiplicity_examples():
    # the X-shaped weight-2 curve as a genus-0 map has multiplicity 4
    spec = DiagramSpec(diamond(), (0, 1), 0)
    diag = enumerate_diagrams(spec)[0]
    marking = enumerate_markings(diag, spec)[0]
    realization, _ = realize_stretched(diag, marking, spec)
    assert tropical_multiplicity(realization.curve) == 4
    # a nodal rational cubic built from the all-unit chain has multiplicity 1
    spec3 = DiagramSpec(triangle(3), (0, 1), 0, (), (), (), (3,))
    for diag in enumerate_diagrams(spec3):
        if sorted(w for _, _, w in diag.finite_edges()) == [1, 1]:
            marking = enumerate_markings(diag, spec3)[0]
            realization, _ = realize_stretched(diag, marking, spec3)
            plane = realization.curve.to_plane_curve(newton=spec3.polygon)
            if plane.crossings:
                assert tropical_multiplicity(realization.curve) == 1


def test_tropical_multiplicity_not_trivalent():
    pc = ParametrizedCurve.build(
        [(0, 0)],
        [
            ((0, -1, 1, (1, 0))),
            ((0, -1, 1, (-1, 0))),
            ((0, -1, 1, (0, 1))),
            ((0, -1, 1, (0, -1))),
        ],
    )
    with pytest.raises(NotTrivalent):
        tropical_multiplicity(pc)


def test_stable_intersection_lines():
    l1, _ = corner_locus(tropical_line(0, 0, 0))
    l2, _ = corner_locus(tropical_line(Fraction(7, 3), Fraction(1, 2), 0))
    points = stable_intersection(l1, l2)
    assert len(points) == 1
    assert sum(m for _, m in points) == 1


def test_stable_intersection_identical_lines_degenerate():
    l1, _ = corner_locus(tropical_line())
    with pytest.raises(NonTransverse):
        stable_intersection(l1, l1)
    points, shift = stable_intersection_generic(l1, l1, seed=1)
    assert sum(m for _, m in points) == 1


def test_stable_intersection_bezout_small():
    rng = random.Random(21)
    for d in (1, 2, 3):
        for _ in range(5):
            c1, _ = corner_locus(random_polynomial(rng, triangle(d)))
            c2, _ = corner_locus(random_polynomial(rng, triangle(d)))
            points, _ = stable_intersection_generic(c1, c2, seed=rng.randrange(10**6))
            assert sum(m for _, m in points) == d * d


def test_ray_census_matches_boundary():
    # infinite branches per direction, counted with weights, equal the
    # integral length of the corresponding Newton polygon edge
    rng = random.Random(2)
    for shape in (triangle(2), diamond(), trapezium(1, 2, 1)):
        poly = random_polynomial(rng, shape)
        curve, _ = corner_locus(poly)
        census = {}
        for r in curve.rays:
            census[r.direction] = census.get(r.direction, 0) + r.weight
        from tropico.lattice import perp, primitive, scale

        for p, q in shape.edges():
            out_normal = primitive(scale(perp(sub(q, p)), -1))
            assert census[out_normal] == integral_length(p, q)


def to_plane_curve_brute_force(pc, newton=None):
    """The crossing scan without bounding boxes: every pair of pieces from
    the resume row on goes through _intersect_pieces."""
    vertices = list(pc.positions)
    segs = []
    rays = []
    for e in pc.edges:
        if e.b >= 0:
            segs.append([e.a, e.b, e.weight, e.direction])
        else:
            rays.append([e.a, e.direction, e.weight])

    def pieces_now():
        m, ints = _integral_frame(vertices)
        out = [(ints[a], ints[b], u, ("s", i)) for i, (a, b, w, u) in enumerate(segs)]
        out += [(ints[a], None, u, ("r", i)) for i, (a, u, w) in enumerate(rays)]
        return m, out

    crossings = set()
    m, pieces = pieces_now()
    row = 0
    while row < len(pieces):
        p1, q1, u1, t1 = pieces[row]
        for p2, q2, u2, t2 in pieces[row + 1:]:
            hit = _intersect_pieces(p1, q1, u1, p2, q2, u2)
            if hit is not None and not hit[1]:
                break
        else:
            row += 1
            continue
        (x, y, den), _ = hit
        vertices.append((Fraction(x, den * m), Fraction(y, den * m)))
        vi = len(vertices) - 1
        crossings.add(vi)
        row = min(row, len(segs))
        _split_piece(segs, rays, t1, vi)
        _split_piece(segs, rays, t2, vi)
        m, pieces = pieces_now()
    segs = [tuple(s) for s in segs]
    rays = tuple(Ray(*r) for r in rays)
    if newton is None:
        return PlaneTropicalCurve.build(vertices, segs, rays, crossings)
    # a given polygon is taken as it is, as the scan takes it
    return PlaneTropicalCurve(
        tuple(vertices), tuple(Segment(*t) for t in segs), rays, frozenset(crossings), newton
    )


def _plane_outcome(fn, *args):
    try:
        return fn(*args)
    except NonTransverse as exc:
        return str(exc)


def test_box_filtered_scan_matches_brute_force_on_realized_curves():
    specs = [DiagramSpec(triangle(4), (0, 1), 0, (), (), (), (4,)),
             DiagramSpec(trapezium(1, 3, 1), (0, 1), 0, (), (), (1,), (4,)),
             DiagramSpec(diamond(), (0, 1), 1)]
    crossings = 0
    for spec in specs:
        for diag in enumerate_diagrams(spec):
            for marking in enumerate_markings(diag, spec):
                for seed in (0, 3):
                    realization, _ = realize_stretched(diag, marking, spec, seed=seed)
                    pc = realization.curve
                    curve = pc.to_plane_curve(newton=spec.polygon)
                    assert curve == to_plane_curve_brute_force(pc, spec.polygon)
                    crossings += len(curve.crossings)
    assert crossings > 3000


def _random_parametrized_curve(rng, grid, denom):
    """Random pieces between random rational points: segments between
    vertex pairs, rays from vertices in random primitive directions."""
    n = rng.randint(3, 9)
    pos = []
    while len(pos) < n:
        p = (Fraction(rng.randint(-grid, grid), rng.randint(1, denom)),
             Fraction(rng.randint(-grid, grid), rng.randint(1, denom)))
        if p not in pos:
            pos.append(p)
    edges = []
    for _ in range(rng.randint(2, 10)):
        a, b = rng.sample(range(n), 2)
        edges.append(PEdge(a, b, rng.randint(1, 3), rational_primitive(sub(pos[b], pos[a]))))
    for _ in range(rng.randint(0, 5)):
        u = (rng.randint(-3, 3), rng.randint(-3, 3))
        if u != (0, 0):
            edges.append(PEdge(rng.randrange(n), -1, 1, rational_primitive(u)))
    return ParametrizedCurve.build(pos, edges)


def _dense_parametrized_curve(rng):
    """12 to 30 long pieces on the grid [-4, 4]^2, none overlapping another:
    segments between vertices at least 4 apart in one coordinate, and rays
    from the vertices."""
    pos = rng.sample([(x, y) for x in range(-4, 5) for y in range(-4, 5)], rng.randint(6, 12))
    pieces = []  # (p, q, u) as _intersect_pieces takes them
    edges = []
    n = rng.randint(12, 30)
    while len(edges) < n:
        a, b = rng.sample(range(len(pos)), 2)
        if rng.random() < 0.7:
            if max(abs(pos[a][0] - pos[b][0]), abs(pos[a][1] - pos[b][1])) < 4:
                continue
            edge = PEdge(a, b, 1, rational_primitive(sub(pos[b], pos[a])))
            piece = (pos[a], pos[b], edge.direction)
        else:
            u = (rng.randint(-2, 2), rng.randint(-2, 2))
            if u == (0, 0):
                continue
            edge = PEdge(a, -1, 1, rational_primitive(u))
            piece = (pos[a], None, edge.direction)
        try:
            for other in pieces:
                _intersect_pieces(*piece, *other)
        except NonTransverse:
            continue
        pieces.append(piece)
        edges.append(edge)
    return ParametrizedCurve.build(pos, edges)


def chain_partition_reference(curve):
    """tropical._chain_partition by walking successor links: at each
    crossing the opposite pieces are paired greedily, and each chain is
    grown from its first piece through the crossings at both of its ends."""
    succ = {}  # (piece tag, end vertex) -> next piece tag
    incidence = curve.incidence
    for v in curve.crossings:
        inc = incidence.get(v, ())
        if len(inc) != 4:
            raise UnsupportedShape(f"crossing vertex {v} is not 4-valent")
        used = set()
        for (t1, u1, _), (t2, u2, _) in itertools.combinations(inc, 2):
            if t1 in used or t2 in used:
                continue
            if u1 == scale(u2, -1):
                succ[(t1, v)] = t2
                succ[(t2, v)] = t1
                used.add(t1)
                used.add(t2)
        if len(used) != 4:
            raise UnsupportedShape(f"crossing vertex {v} does not pair into two lines")

    def ends_of(tag):
        if tag[0] == "s":
            s = curve.segments[tag[1]]
            return [s.a, s.b]
        return [curve.rays[tag[1]].base, None]

    seen = set()
    chains = []
    for piece in [("s", i) for i in range(len(curve.segments))] + [
        ("r", i) for i in range(len(curve.rays))
    ]:
        if piece in seen:
            continue
        chain = [piece]
        seen.add(piece)
        endpoints = []
        for v0 in ends_of(piece):
            tag, v = piece, v0
            while v is not None and v in curve.crossings:
                tag = succ[(tag, v)]
                if tag in seen and tag in chain:
                    break
                chain.append(tag)
                seen.add(tag)
                other = [w for w in ends_of(tag) if w != v]
                v = other[0] if other else None
            endpoints.append(v)
        chains.append((chain, endpoints))
    return chains


def _chains_as_reference(curve):
    """tropical._chain_partition(curve), after checking that it gives the
    reference's chains in the reference's order: the same piece tags and
    the same multiset of endpoints per chain."""
    got = tropical._chain_partition(curve)

    def unordered(chains):
        return [(sorted(chain), Counter(endpoints)) for chain, endpoints in chains]

    assert unordered(got) == unordered(chain_partition_reference(curve))
    return got


def _splits_per_piece(curve):
    """How often each piece of the parametrized curve was split: the pieces
    of its maximal straight chain through crossings, less one."""
    return [len(chain) - 1 for chain, _ in _chains_as_reference(curve)]


def test_box_filtered_scan_matches_brute_force_on_random_curves():
    rng = random.Random(44)
    seen = set()
    for trial in range(400):
        grid, denom = ((3, 1), (6, 2), (40, 9))[trial % 3]
        pc = _random_parametrized_curve(rng, grid, denom)
        got = _plane_outcome(pc.to_plane_curve, triangle(1))
        assert got == _plane_outcome(to_plane_curve_brute_force, pc, triangle(1))
        seen.add("raised" if isinstance(got, str) else "crossed" if got.crossings else "plain")
    assert seen == {"raised", "crossed", "plain"}
    # dense curves: pieces split again and again, later splits falling on
    # pieces that earlier splits made
    resplits = thrice = 0
    for _ in range(60):
        pc = _dense_parametrized_curve(rng)
        got = pc.to_plane_curve(triangle(1))
        assert got == to_plane_curve_brute_force(pc, triangle(1))
        splits = _splits_per_piece(got)
        resplits += sum(n - 1 for n in splits if n >= 2)
        thrice += sum(n >= 3 for n in splits)
    assert resplits >= 2500 and thrice >= 600
    # a triple point and a piece through a vertex of the image: the first
    # pair splits at the triple point, the third piece passes it unsplit,
    # and the piece through the vertex stays whole
    pos = [(-2, 0), (2, 0), (0, -2), (0, 2), (-2, -2), (2, 2), (1, -1), (3, -1), (1, -3)]
    edges = [PEdge(0, 1, 1, (1, 0)), PEdge(2, 3, 1, (0, 1)), PEdge(4, 5, 1, (1, 1)),
             PEdge(6, 7, 1, (1, 0)), PEdge(6, 8, 1, (0, -1)), PEdge(1, -1, 1, (-1, -1))]
    pc = ParametrizedCurve.build(pos, edges)
    for scan in (pc.to_plane_curve, lambda newton: to_plane_curve_brute_force(pc, newton)):
        curve = scan(triangle(1))
        assert curve.vertices[9:] == ((0, 0),)
        assert curve.crossings == {9}
        assert [(s.a, s.b) for s in curve.segments] == [(0, 9), (2, 9), (4, 5), (6, 7), (6, 8), (9, 1), (9, 3)]
        assert [(r.base, r.direction) for r in curve.rays] == [(1, (-1, -1))]


def test_collinear_overlap_still_raises_in_the_scan():
    half = Fraction(1, 2)
    overlapping = [
        # two segments on one line
        ([(0, 0), (2, 0), (1, 0), (3, 0)], [PEdge(0, 1, 1, (1, 0)), PEdge(2, 3, 1, (1, 0))]),
        # a ray along a segment, from beyond its end
        ([(0, 0), (half, half)], [PEdge(0, 1, 1, (1, 1)), PEdge(1, -1, 1, (-1, -1))]),
        # two opposite rays
        ([(0, 0), (0, 5)], [PEdge(0, -1, 1, (0, 1)), PEdge(1, -1, 1, (0, -1))]),
    ]
    for pos, edges in overlapping:
        pc = ParametrizedCurve.build(pos, edges)
        for scan in (pc.to_plane_curve, lambda newton: to_plane_curve_brute_force(pc, newton)):
            with pytest.raises(NonTransverse, match="overlap on a common supporting line"):
                scan(triangle(1))


def test_stable_intersection_vertex_contact_message():
    l1, _ = corner_locus(tropical_line(0, 0, 0))
    l2, _ = corner_locus(tropical_line(0, Fraction(-1, 3), Fraction(-1, 3)))
    with pytest.raises(NonTransverse) as err:
        stable_intersection(l1, l2)
    assert str(err.value) == "intersection at a vertex: (Fraction(1, 3), Fraction(1, 3))"
    # a contact of two collinear pieces end to end, off the origin
    a, b, c = (Fraction(1, 5), Fraction(1)), (Fraction(8, 15), Fraction(5, 3)), (Fraction(13, 15), Fraction(7, 3))
    # two rayless records, which build refuses
    c1, c2 = (
        PlaneTropicalCurve((p, q), (Segment(0, 1, 1, (1, 2)),), (), frozenset(), triangle(1))
        for p, q in ((a, b), (b, c))
    )
    for first, second in ((c1, c2), (c2, c1)):
        with pytest.raises(NonTransverse) as err:
            stable_intersection(first, second)
        assert str(err.value) == "intersection at a vertex: (Fraction(8, 15), Fraction(5, 3))"


def _plane_with_handed_frame(pc, newton):
    """pc.to_plane_curve(newton), after checking that the frame it hands the
    plane curve is _integral_frame of the curve's vertices."""
    curve = pc.to_plane_curve(newton)
    assert vars(curve)["frame"] == _integral_frame(curve.vertices)
    return curve


def test_curves_are_handed_their_integral_frame():
    # realize hands its curve the frame of its positions, and to_plane_curve
    # the frame it found the crossings in, joined with theirs
    from test_realize import REALIZE_CORPUS, ROTATED_T3, _marked
    from test_render import tropicalize_corpus

    crossings = 0
    for spec in REALIZE_CORPUS + [ROTATED_T3]:
        for diag, marking in _marked(spec):
            pc = realize_stretched(diag, marking, spec, seed=0)[0].curve
            assert vars(pc)["frame"] == _integral_frame(pc.positions)
            crossings += len(_plane_with_handed_frame(pc, spec.polygon).crossings)
    assert crossings > 300
    # the corner loci of the tropicalize corpus as parametrized curves
    cases = 0
    for seed in (0, 1, 2):
        for poly in tropicalize_corpus(seed):
            curve, _ = corner_locus(poly)
            edges = [PEdge(s.a, s.b, s.weight, s.direction) for s in curve.segments]
            edges += [PEdge(r.base, -1, r.weight, r.direction) for r in curve.rays]
            pc = ParametrizedCurve(curve.vertices, tuple(edges))
            _plane_with_handed_frame(pc, curve.newton)
            cases += 1
    assert cases == 54
    # random curves, whose pieces cross again and again
    rng = random.Random(45)
    for trial in range(90):
        grid, denom = ((3, 1), (6, 2), (40, 9))[trial % 3]
        pc = _random_parametrized_curve(rng, grid, denom)
        _plane_outcome(_plane_with_handed_frame, pc, triangle(1))
    for _ in range(10):
        crossings = _plane_with_handed_frame(_dense_parametrized_curve(rng), triangle(1)).crossings
        assert len(crossings) > 10


def test_chain_partition_matches_the_reference():
    # the realize corpus, the corner loci of the tropicalize corpus, and (in
    # _splits_per_piece) the dense random curves
    from test_realize import REALIZE_CORPUS, _marked
    from test_render import tropicalize_corpus

    curves = crossings = 0
    for spec in REALIZE_CORPUS:
        for diag, marking in _marked(spec):
            pc = realize_stretched(diag, marking, spec, seed=0)[0].curve
            curve = pc.to_plane_curve(spec.polygon)
            _chains_as_reference(curve)
            curves += 1
            crossings += len(curve.crossings)
    assert curves == 340 and crossings > 300
    for seed in (0, 1, 2):
        for poly in tropicalize_corpus(seed):
            curve, _ = corner_locus(poly)
            chains = _chains_as_reference(curve)
            curves += 1
            assert len(chains) == len(curve.segments) + len(curve.rays) - 2 * len(curve.crossings)
    assert curves == 340 + 54
    # a crossing that is not 4-valent, and a 4-valent one whose pieces do
    # not pair into two lines (one opposite pair only)
    line, _ = corner_locus(tropical_line())
    trapezoid, _ = corner_locus(
        TropicalPolynomial.make({(0, 0): 0, (2, 0): 0, (3, 1): 0, (0, 1): 0})
    )
    for curve, message in (
        (line, "crossing vertex 0 is not 4-valent"),
        (trapezoid, "crossing vertex 0 does not pair into two lines"),
    ):
        marked = PlaneTropicalCurve(
            curve.vertices, curve.segments, curve.rays, frozenset({0}), curve.newton
        )
        for partition in (tropical._chain_partition, chain_partition_reference):
            with pytest.raises(UnsupportedShape) as caught:
                partition(marked)
            assert str(caught.value) == message


def test_realized_curves_have_the_genus_of_their_spec():
    # every marked diagram realized at seed 0: the plane curve's geometric
    # genus, p_a - delta checked against the separated curve, is the genus
    # the diagram was counted at
    from test_realize import REALIZE_CORPUS, _marked

    specs = REALIZE_CORPUS + [DiagramSpec(triangle(4), (0, 1), g, (), (), (), (4,)) for g in (1, 2, 3)]
    specs += [DiagramSpec(trapezium(1, 3, 1), (0, 1), g, (), (), (1,), (4,)) for g in (0, 1)]
    curves = 0
    for spec in specs:
        for diag, marking in _marked(spec):
            pc = realize_stretched(diag, marking, spec, seed=0)[0].curve
            assert geometric_genus(pc.to_plane_curve(spec.polygon)) == spec.genus, (spec, marking)
            curves += 1
    assert curves == 340 + 137 + 421
