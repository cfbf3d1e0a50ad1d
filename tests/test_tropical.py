import fractions
import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from tropico.diagram import enumerate_diagrams, enumerate_markings
from tropico import io, lattice, tropical
from tropico.lattice import (
    DegeneratePolygon,
    LatticePolygon,
    add,
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
    AffinePiece,
    DualSubdivision,
    InvariantViolation,
    LegendreTransform,
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
    stable_intersection,
    stable_intersection_generic,
    tropical_multiplicity,
    _integral_frame,
    _intersect_pieces,
    _split_piece,
    _upper_cells,
)


def rational_primitive(v):
    """Primitive integer vector parallel to a nonzero rational vector."""
    x, y = Fraction(v[0]), Fraction(v[1])
    if x == 0 and y == 0:
        raise TropicalError("zero vector")
    m = math.lcm(x.denominator, y.denominator)
    ix, iy = int(x * m), int(y * m)
    g = math.gcd(ix, iy)
    return (ix // g, iy // g)


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
        if sorted(w for _, _, w in diag.floor_data[2]) != [1, 2]:
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
    point lies above, keyed by the points on it: O(n^4), the definition.
    The test runs on the lifts times the lcm L of their denominators, in
    integers: with (nx, ny) = D L (gx, gy) for the plane's gradient (gx,
    gy) and D > 0 the determinant of the triple, q is on or below the
    plane exactly when nx (qx - x0) + ny (qy - y0) >= D (h(q) - h(p0)).
    Fractions are built only for the cells found."""
    lift = dict(poly_terms)
    den = math.lcm(*(a.denominator for a in lift.values()))
    pts = [(x, y, a.numerator * (den // a.denominator)) for (x, y), a in poly_terms]
    cells = {}
    for (x0, y0, h0), (x1, y1, h1), (x2, y2, h2) in itertools.combinations(pts, 3):
        m00, m01 = x1 - x0, y1 - y0
        m10, m11 = x2 - x0, y2 - y0
        dd = m00 * m11 - m01 * m10
        if dd == 0:
            continue
        r0, r1 = h1 - h0, h2 - h0
        nx, ny = r0 * m11 - r1 * m01, r1 * m00 - r0 * m10
        if dd < 0:
            nx, ny, dd = -nx, -ny, -dd
        if all(nx * (qx - x0) + ny * (qy - y0) >= dd * (h - h0) for qx, qy, h in pts):
            on = frozenset(
                (qx, qy) for qx, qy, h in pts if nx * (qx - x0) + ny * (qy - y0) == dd * (h - h0)
            )
            gx, gy = Fraction(nx, dd * den), Fraction(ny, dd * den)
            cells[on] = (gx, gy, lift[x0, y0] - gx * x0 - gy * y0)
    return cells


def planes(cells, poly_terms):
    """The (gx, gy, c) of each cell (nx, ny, D, ring) of _upper_cells, with
    gradient (nx / D, ny / D) and c read at a lifted point of the cell,
    once D is checked to be positive and the ring to be the vertices of the
    convex hull of the cell's points: points of the cell that the general
    LatticePolygon constructor keeps as they are (counterclockwise,
    strictly convex, from the least one), around every point of the cell."""
    lift = dict(poly_terms)
    out = {}
    for eq, (nx, ny, d, ring) in cells.items():
        assert d > 0
        hull = LatticePolygon(ring)
        assert ring == list(hull.vertices) and set(ring) <= eq
        assert all(hull.contains(p) for p in eq)
        gx, gy = Fraction(nx, d), Fraction(ny, d)
        p = min(eq)
        out[eq] = (gx, gy, lift[p] - gx * p[0] - gy * p[1])
    return out


def assert_hull_matches(terms):
    terms = tuple((e, Fraction(a)) for e, a in terms.items())
    flipped = tuple((e, -a) for e, a in terms)  # the lower hull, as legendre uses it
    for lift in (terms, flipped):
        hull, cells = _upper_cells(lift)
        assert planes(cells, lift) == upper_cells_brute_force(lift)
        assert hull == list(convex_hull(dict(lift)).vertices)


def upper_cells_reference(poly_terms):
    """The hull walk as it was before each pivot collected its cell in its
    one scan: (hull, cells) as _upper_cells returns them.  It starts where
    _upper_cells does, pushes the reverse of every ring edge, boundary
    edges too, whose pivot finds no point on the left, and reads each cell
    off a second pass over every point, keeping those on the pivoted plane."""
    lift = dict(poly_terms)
    pts = sorted(lift)
    hull = lattice.hull_ring(pts)
    if len(hull) < 3:
        return hull, {}
    scale_ = math.lcm(*(a.denominator for a in lift.values()))
    h = {p: a.numerator * (scale_ // a.denominator) for p, a in lift.items()}
    lifted = [(x, y, h[x, y]) for x, y in pts]
    v0, v1 = hull[:2]
    e = sub(v1, v0)
    q, qt = v1, dot(e, e)
    for r in pts:
        t = dot(e, sub(r, v0))
        if r != v0 and det(e, sub(r, v0)) == 0 and (h[r] - h[v0]) * qt > (h[q] - h[v0]) * t:
            q, qt = r, t
    cells = {}
    done = set()
    stack = [(v0, q)]
    while stack:
        p, q = stack.pop()
        if (p, q) in done:
            continue
        found = _pivot_reference(lifted, h, p, q)
        if found is None:
            continue
        eq, (nx, ny, den) = found
        if len(eq) == 3:
            ring = eq if det(sub(eq[1], eq[0]), sub(eq[2], eq[0])) > 0 else [eq[0], eq[2], eq[1]]
        else:
            ring = lattice.hull_ring(eq)
        cells[frozenset(eq)] = (nx, ny, den * scale_, ring)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            done.add((a, b))
            if (b, a) not in done:
                stack.append((b, a))
    return hull, cells


def _pivot_reference(lifted, h, p, q):
    """The steepest tilt s = max num(r) / D(r) over the points r left of
    p -> q, then every point on the plane A + s * D; None when no point
    lies on the left."""
    px, py = p
    ex, ey = q[0] - px, q[1] - py
    ee = ex * ex + ey * ey
    hp = h[p]
    dh = h[q] - hp
    best_n, best_d = None, 1
    for x, y, hr in lifted:
        rx, ry = x - px, y - py
        dd = ex * ry - ey * rx
        if dd > 0:
            num = (hr - hp) * ee - dh * (ex * rx + ey * ry)
            if best_n is None or num * best_d > best_n * dd:
                best_n, best_d = num, dd
    if best_n is None:
        return None
    den = ee * best_d
    nx, ny = dh * best_d * ex - best_n * ey, dh * best_d * ey + best_n * ex
    c = hp * den - nx * px - ny * py
    return [(x, y) for x, y, hr in lifted if hr * den - nx * x - ny * y == c], (nx, ny, den)


def fine_polynomial(rng, d):
    """The near-concave lift -(i^2 + j^2) + eps on T_d, |eps| <= 1/8, drawn
    until eps splits every unit square, as perfbench/workloads.py draws it:
    its regular subdivision is a unimodular triangulation."""
    points = triangle(d).lattice_points()
    while True:
        eps = {p: Fraction(rng.randint(-10**4, 10**4), 8 * 10**4) for p in points}
        if all(eps[i, j] + eps[i + 1, j + 1] != eps[i + 1, j] + eps[i, j + 1]
               for i, j in points if i + j + 2 <= d):
            return TropicalPolynomial.make({(i, j): -(i * i + j * j) + e for (i, j), e in eps.items()})


# two cells: the first has (2, 1) on the line of the start edge (0, 3) ->
# (1, 2) beyond its end, and a walk that keeps only the points of that line
# between the edge's ends splits the cell into two triangles
COLLINEAR_PIN = {(0, 3): -2, (1, 2): -1, (2, 1): 0, (3, 0): -2, (3, 3): -2}


def walk_corpus():
    """The polynomials on which the walk is held to the reference: the
    benchmark's coarse/fine pairs at seeds 0-9, 400 random polynomials on
    T_d (d <= 7) and Tz^1_{a,b} (a, b <= 3) with denominators up to 1, 3
    or 7 and spreads 1, 2, 5 or 40 (the small spreads give coplanar
    cells), and the collinear pin."""
    polys = [poly for seed in range(10) for _, coarse, fine, _ in bench_pairs(seed) for poly in (coarse, fine)]
    rng = random.Random(42)
    shapes = [triangle(d) for d in range(1, 8)]
    shapes += [trapezium(1, a, b) for a in range(1, 4) for b in range(1, 4)]
    for _ in range(400):
        polys.append(random_polynomial(rng, rng.choice(shapes), denom=rng.choice((1, 3, 7)),
                                       spread=rng.choice((1, 2, 5, 40))))
    return polys + [TropicalPolynomial.make(COLLINEAR_PIN)]


def test_upper_cells_equal_the_reference_walk():
    # the same keys, planes (nx, ny, D) and rings for each lift and its
    # negation, the hull legendre_transform takes
    lifts = cells_seen = 0
    coplanar = Counter()  # cells of more than 3 points, by their size
    for poly in walk_corpus():
        for lift in (poly.terms, tuple((p, -a) for p, a in poly.terms)):
            got = _upper_cells(lift)
            assert got == upper_cells_reference(lift), lift
            lifts += 1
            cells_seen += len(got[1])
            coplanar.update(len(eq) for eq in got[1] if len(eq) > 3)
    assert lifts == 1322 and cells_seen > 8000 and sum(coplanar.values()) > 300
    _, cells = _upper_cells(TropicalPolynomial.make(COLLINEAR_PIN).terms)
    assert {eq: ring for eq, (*_, ring) in cells.items()} == {
        frozenset({(0, 3), (1, 2), (2, 1), (3, 3)}): [(0, 3), (2, 1), (3, 3)],
        frozenset({(2, 1), (3, 0), (3, 3)}): [(2, 1), (3, 0), (3, 3)],
    }


def test_one_pivot_per_cell(monkeypatch):
    # each pivot finds a cell and each cell takes one pivot, none on the
    # boundary of the Newton polygon: d^2 pivots for the d^2 triangles of a
    # fine lift on T_d, where pivoting its 3d boundary edges too took
    # d^2 + 3d
    pivots = []
    pivot = tropical._pivot

    def counting_pivot(*args):
        found = pivot(*args)
        pivots.append(found)
        return found

    monkeypatch.setattr(tropical, "_pivot", counting_pivot)
    rng = random.Random(8)
    polys = [fine_polynomial(rng, d) for d in range(2, 9)]
    polys += [random_polynomial(rng, shape, denom=denom, spread=spread)
              for shape in (triangle(3), triangle(6), trapezium(1, 2, 3))
              for denom in (1, 7) for spread in (1, 2, 40)]
    for poly in polys:
        for lift in (poly.terms, tuple((p, -a) for p, a in poly.terms)):
            pivots.clear()
            _, cells = _upper_cells(lift)
            assert len(pivots) == len(cells) and None not in pivots, lift
    for d, poly in zip(range(2, 9), polys):
        pivots.clear()
        _upper_cells(poly.terms)
        assert len(pivots) == d * d
    # a walk that takes no cell edge for a side of the Newton polygon
    # pivots on a boundary edge, with no point on its left: a broken
    # invariant
    monkeypatch.setattr(tropical, "_side", lambda a, b: (a, b))
    with pytest.raises(InvariantViolation, match="has no point on its left"):
        _upper_cells(polys[0].terms)


def spans_plane_reference(poly):
    """The pairwise test: some two support points span the plane with the
    first."""
    pts = poly.support
    if len(pts) < 3:
        return False
    p0 = pts[0]
    return any(det(sub(p1, p0), sub(p2, p0)) != 0 for p1, p2 in itertools.combinations(pts[1:], 2))


def test_spans_plane_matches_the_pairwise_test():
    rng = random.Random(3)
    supports = [[(0, 0)], [(0, 0), (1, 1)], [(0, 0), (0, 0), (1, 1)], [(1, 1), (0, 0), (1, 1)]]
    for _ in range(300):
        n = rng.randint(1, 7)
        if rng.random() < 0.5:  # points on a line, a few pushed off it
            a, u = (rng.randint(-3, 3), rng.randint(-3, 3)), (rng.randint(-2, 2), rng.randint(-2, 2))
            pts = [add(a, scale(u, rng.randint(-3, 3))) for _ in range(n)]
            pts = [add(p, (0, 1)) if rng.random() < 0.1 else p for p in pts]
        else:
            pts = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(n)]
        supports.append(pts + rng.sample(pts, rng.randint(0, n)))  # duplicate exponents
    spans = Counter()
    for pts in supports:
        # duplicate or unsorted exponents only in a record built directly
        for poly in (TropicalPolynomial(tuple((p, Fraction(0)) for p in pts)),
                     TropicalPolynomial.make({p: 0 for p in pts})):
            got = poly.spans_plane()
            assert got == spans_plane_reference(poly), pts
            spans[got] += 1
    assert spans[True] > 100 and spans[False] > 100


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
    assert list(_upper_cells(tuple(zeros.items()))[1]) == [frozenset(zeros)]
    square = {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 0}
    assert_hull_matches(square)
    assert len(_upper_cells(tuple(square.items()))[1]) == 1
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
    assert _upper_cells((((0, 0), 0), ((1, 1), 0), ((2, 2), 3))) == ([(0, 0), (2, 2)], {})
    assert _upper_cells((((0, 0), 0), ((3, 0), 1))) == ([(0, 0), (3, 0)], {})
    assert _upper_cells((((1, 2), 5),)) == ([], {})


def test_corner_locus_rejects_a_broken_tiling(monkeypatch):
    monkeypatch.setattr(DualSubdivision, "check_tiling", lambda self: False)
    with pytest.raises(InvariantViolation):
        corner_locus(tropical_line())


def test_corner_locus_rejects_an_edge_off_its_dual(monkeypatch):
    # tilt one cell's plane: its vertex moves off the normal line of the
    # shared edge
    poly = TropicalPolynomial.make({(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 1})
    hull, cells = _upper_cells(poly.terms)
    eq = min(cells, key=sorted)
    nx, ny, d, ring = cells[eq]
    monkeypatch.setattr(tropical, "_upper_cells", lambda terms: (hull, {**cells, eq: (nx + d, ny, d, ring)}))
    with pytest.raises(InvariantViolation, match="is not orthogonal to its dual"):
        corner_locus(poly)


def test_corner_locus_rejects_two_cells_on_one_plane(monkeypatch):
    # both cells of the square get the first one's plane: their vertices
    # coincide, and the zero vector between them is a broken invariant,
    # not a domain error
    poly = TropicalPolynomial.make({(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 1})
    hull, cells = _upper_cells(poly.terms)
    first, second = sorted(cells, key=sorted)
    moved = {**cells, second: (*cells[first][:3], cells[second][3])}
    monkeypatch.setattr(tropical, "_upper_cells", lambda terms: (hull, moved))
    with pytest.raises(InvariantViolation, match="is not orthogonal to its dual"):
        corner_locus(poly)


def test_corner_locus_refuses_a_cell_ring_out_of_form(monkeypatch):
    # the one cell of a flat lift on T3, handed over with a ring that is
    # clockwise, not from its least point, with a collinear or a reflex
    # vertex, or winding twice (a pentagram): a broken invariant each time
    poly = TropicalPolynomial.make({p: 0 for p in triangle(3).lattice_points()})
    hull, cells = _upper_cells(poly.terms)
    ((eq, (nx, ny, d, ring)),) = cells.items()
    assert ring == [(0, 0), (3, 0), (0, 3)]
    bad = {
        "does not turn strictly left": [(0, 0), (0, 3), (3, 0)],
        "does not start from its least point": [(3, 0), (0, 3), (0, 0)],
        "does not turn strictly left at \\(1, 0\\)": [(0, 0), (1, 0), (3, 0), (0, 3)],
        "does not turn strictly left at \\(1, 1\\)": [(0, 0), (3, 0), (1, 1), (0, 3)],
        "winds 2 times": [(0, 1), (4, 1), (1, 3), (2, 0), (3, 3)],
    }
    for message, ring in bad.items():
        monkeypatch.setattr(tropical, "_upper_cells", lambda terms, ring=ring: (hull, {eq: (nx, ny, d, ring)}))
        with pytest.raises(InvariantViolation, match=message):
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
    _, cells = _upper_cells(poly.terms)
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


def _is_parallelogram(cp):
    if len(cp.vertices) != 4:
        return False
    e = cp.edge_vectors()
    return e[0] == scale(e[2], -1) and e[1] == scale(e[3], -1)


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
    supports (some collinear), Fraction lifts on random point sets, and
    near-concave lifts -(i^2 + j^2) + eps on T4..T6, eps of denominator
    8 * 10^4 as in the benchmark's fine polynomials."""
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
    for d in (4, 5, 6):
        for _ in range(4):
            yield TropicalPolynomial.make({
                (i, j): -(i * i + j * j) + Fraction(rng.randint(-10**4, 10**4), 8 * 10**4)
                for i, j in triangle(d).lattice_points()
            })


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


def test_legendre_transform_matches_its_definition():
    # f_vee(p) = max_x (p . x - f(x)) at seeded rational points, with f the
    # coefficients of each polynomial of the reference corpus
    rng = random.Random(33)
    checked = 0
    for poly in reference_corpus(random.Random(12)):
        f = dict(poly.terms)
        lt = legendre_transform(f)
        for _ in range(3):
            p = tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(2))
            assert lt(p) == max(p[0] * x + p[1] * y - v for (x, y), v in f.items()), (poly, p)
            checked += 1
    assert checked >= 1800


def lattice_point_reference(p):
    """_lattice_point without its shortcut for a pair of ints: every
    coordinate must equal its int()."""
    x, y = p
    if x != int(x) or y != int(y):
        raise TropicalError(f"exponent {p!r} is not a lattice point")
    return (int(x), int(y))


def legendre_transform_reference(f):
    """legendre_transform as it read its input before it took ints and
    Fractions as they are: every exponent through lattice_point_reference,
    every value through Fraction, and the hull walk on the negated
    Fractions."""
    f = {lattice_point_reference(p): Fraction(v) for p, v in dict(f).items()}
    if not f:
        raise TropicalError("empty domain")
    _, cells = _upper_cells(tuple((p, -v) for p, v in f.items()))
    return LegendreTransform(tuple(AffinePiece(x, -f[x]) for x in tropical._lower_hull_vertices(f, cells)))


def _typed_pieces(lt):
    """The pieces of a transform with the types of their numbers, which
    equality alone does not tell apart (1 == 1.0 == Fraction(1))."""
    return [(piece.gradient, tuple(map(type, piece.gradient)), piece.offset, type(piece.offset))
            for piece in lt.pieces]


def test_legendre_transform_reads_its_input_as_the_reference():
    # exponents: ints as they are, 1.0 as 1, True as 1; 1.9, "1" and 1/2 refused
    square = {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): -1}
    for exponent in ((1.0, 0), (True, 0), (Fraction(1), 0)):
        f = {**{e: v for e, v in square.items() if e != (1, 0)}, exponent: 0}
        got = legendre_transform(f)
        assert _typed_pieces(got) == _typed_pieces(legendre_transform(square))
        assert _typed_pieces(got) == _typed_pieces(legendre_transform_reference(f))
    for exponent in ((1.9, 0), ("1", 0), (0, Fraction(1, 2))):
        for fn in (legendre_transform, legendre_transform_reference):
            with pytest.raises(TropicalError, match="not a lattice point"):
                fn({exponent: 0, (0, 0): 0, (0, 1): 0})
    # values: ints, strings and Fractions, on a full and on a collinear domain
    for values in ((0, 3, -2, 5), ("3/2", "-1", "0", "7/3"), (Fraction(3, 2), Fraction(-1, 4), 2, "1/6")):
        for points in (((0, 0), (1, 0), (0, 1), (1, 1)), ((0, 0), (1, 1), (2, 2), (3, 3))):
            f = dict(zip(points, values))
            assert _typed_pieces(legendre_transform(f)) == _typed_pieces(legendre_transform_reference(f))
    for fn in (legendre_transform, legendre_transform_reference):
        with pytest.raises(TropicalError, match="empty domain"):
            fn({})
    # and every polynomial of the reference corpus, as its terms
    for poly in reference_corpus(random.Random(12)):
        f = dict(poly.terms)
        assert _typed_pieces(legendre_transform(f)) == _typed_pieces(legendre_transform_reference(f)), poly


def fraction_constructions(fn):
    """fn() and the number of Fractions it constructed: the calls of
    Fraction.__new__ and of _from_coprime_ints, by which Fraction
    arithmetic builds its results from Python 3.12 on."""
    made = 0

    def profile(frame, event, arg):
        nonlocal made
        code = frame.f_code
        if event == "call" and code.co_filename == fractions.__file__ and code.co_name in (
            "__new__", "_from_coprime_ints"
        ):
            made += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, made


def test_hull_walk_construction_counts(monkeypatch):
    # _upper_cells builds no Fraction and legendre_transform no
    # LatticePolygon; corner_locus builds no polygon through the general
    # constructor: it hulls the support once (hull_ring), calls neither
    # convex_hull, spans_plane nor newton_polygon, checks one ring per cell
    # and the hull's (LatticePolygon.from_ring), and builds two Fractions
    # per vertex
    assert fraction_constructions(lambda: Fraction(1, 3) * 3 + 1)[1] >= 3
    hulled, rings, post_inits = [], 0, 0
    post_init = lattice.LatticePolygon.__post_init__
    from_ring = lattice.LatticePolygon.from_ring.__func__
    hull_ring = lattice.hull_ring

    def counting_post_init(self):
        nonlocal post_inits
        post_inits += 1
        post_init(self)

    def counting_from_ring(cls, ring):
        nonlocal rings
        rings += 1
        return from_ring(cls, ring)

    def counting_hull_ring(points):
        hulled.append(list(points))
        return hull_ring(points)

    def refused(*args):
        raise AssertionError("corner_locus hulls the support a second time")

    monkeypatch.setattr(lattice.LatticePolygon, "__post_init__", counting_post_init)
    monkeypatch.setattr(lattice.LatticePolygon, "from_ring", classmethod(counting_from_ring))
    monkeypatch.setattr(lattice, "hull_ring", counting_hull_ring)
    for name in ("spans_plane", "newton_polygon"):
        monkeypatch.setattr(TropicalPolynomial, name, refused)
    monkeypatch.setattr(tropical, "convex_hull", refused)
    monkeypatch.setattr(lattice, "convex_hull", refused)
    rng = random.Random(33)
    for d in (2, 4, 6):
        for poly in (random_polynomial(rng, triangle(d)), random_polynomial(rng, triangle(d), denom=1)):
            hulled, rings, post_inits = [], 0, 0
            (curve, subdivision), made = fraction_constructions(lambda: corner_locus(poly))
            support = sorted(poly.support)
            assert [pts for pts in hulled if pts == support] == [support]
            assert (rings, post_inits) == (len(subdivision.cells) + 1, 0)
            assert made == 2 * len(curve.vertices)
            hulls = len(hulled)
            (_, cells), made = fraction_constructions(lambda: _upper_cells(poly.terms))
            assert len(cells) == len(subdivision.cells) and made == 0
            # the other hulls are those of the cells that are not triangles
            assert hulls == 1 + sum(len(eq) > 3 for eq in cells)
            rings = post_inits = 0
            legendre_transform(dict(poly.terms))
            assert rings == post_inits == 0


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
        ([], triangle(1)),
    ):
        with pytest.raises(TropicalError, match="ray circuit does not trace the Newton polygon"):
            PlaneTropicalCurve.build([(0, 0)], (), rays, newton=newton)


def test_build_refuses_a_piece_of_weight_below_one_or_a_direction_not_primitive():
    line = [Ray(0, (-1, 0), 1), Ray(0, (0, -1), 1), Ray(0, (1, 1), 1)]
    refused = "needs a positive weight and a primitive direction"
    built = PlaneTropicalCurve.build([(0, 0)], (), line)
    assert built.newton.edge_vectors() == triangle(1).edge_vectors()
    # each is refused with or without a polygon, even where the summed
    # weights per direction match it, and so is its JSON
    for segments, rays, newton in (
        ((), line + [Ray(0, (1, 0), 0)], triangle(1)),
        ((), line + [Ray(0, (1, 0), 1), Ray(0, (1, 0), -1)], triangle(1)),
        ((), line + [Ray(0, (-1, 0), 1), Ray(0, (-1, 0), -1)], triangle(1)),
        ((), [Ray(0, (-2, 0), 1), Ray(0, (0, -2), 1), Ray(0, (2, 2), 1)], triangle(2)),
        ([Segment(0, 1, 0, (1, 0))], line + [Ray(1, u, 1) for _, u, _ in line], triangle(2)),
        ([Segment(0, 1, 1, (2, 0))], line + [Ray(1, u, 1) for _, u, _ in line], triangle(2)),
    ):
        vertices = [(0, 0), (2, 0)] if segments else [(0, 0)]
        for given in (None, newton):
            with pytest.raises(TropicalError, match=refused):
                PlaneTropicalCurve.build(vertices, segments, rays, newton=given)
        # the record itself, which io writes as it would a built curve
        curve = PlaneTropicalCurve(
            tuple((Fraction(x), Fraction(y)) for x, y in vertices), tuple(segments), tuple(rays),
            frozenset(), newton,
        )
        with pytest.raises(TropicalError, match=refused):
            io.curve_from_json(io.curve_to_json(curve))


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
        if sorted(w for _, _, w in diag.floor_data[2]) == [1, 1]:
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
    assert shift != (0, 0) and points == stable_intersection(l1, l1.translate(shift))


def test_stable_intersection_bezout_small(monkeypatch):
    # a transverse pair is intersected as it is, untranslated
    shifts = []
    translate = PlaneTropicalCurve.translate
    monkeypatch.setattr(PlaneTropicalCurve, "translate", lambda c, v: shifts.append(v) or translate(c, v))
    rng = random.Random(21)
    for d in (1, 2, 3):
        for _ in range(5):
            c1, _ = corner_locus(random_polynomial(rng, triangle(d)))
            c2, _ = corner_locus(random_polynomial(rng, triangle(d)))
            del shifts[:]
            points, shift = stable_intersection_generic(c1, c2, seed=rng.randrange(10**6))
            assert sum(m for _, m in points) == d * d
            if shift == (0, 0):
                assert not shifts and points == stable_intersection(c1, c2)
            else:
                assert shifts[-1] == shift


def stable_intersection_reference(c1, c2):
    """stable_intersection without its box filter and without integer
    keys: every pair of pieces goes to _intersect_pieces, and each point is
    keyed, summed and sorted as its pair of Fractions."""
    m, ints = tropical._joint_frame(c1.frame, c2.frame)
    points = {}
    pieces2 = c2.pieces(ints[len(c1.vertices):])
    for p1, q1, u1, w1, _ in c1.pieces(ints):
        for p2, q2, u2, w2, _ in pieces2:
            hit = _intersect_pieces(p1, q1, u1, p2, q2, u2)
            if hit is None:
                continue
            (x, y, den), at_end = hit
            point = (Fraction(x, den * m), Fraction(y, den * m))
            if at_end:
                raise NonTransverse(f"intersection at a vertex: {point}")
            mult = w1 * w2 * abs(det(u1, u2))
            points[point] = points.get(point, 0) + mult
    return sorted(points.items())


def intersection_pairs(rng, degrees):
    """Pairs of corner loci on T_d for d in degrees: coarse (integer
    coefficients), random with denominators, ties in {-1, 0, 1} and fine
    (near-concave) polynomials, each against each other and itself, so
    that overlaps and contacts at vertices come up as well as transverse
    points."""
    for d in degrees:
        points = triangle(d).lattice_points()
        polys = []
        for _ in range(2):
            polys += [
                random_polynomial(rng, triangle(d), denom=1),
                random_polynomial(rng, triangle(d), denom=7),
                TropicalPolynomial.make({p: rng.randint(-1, 1) for p in points}),
                TropicalPolynomial.make({
                    (i, j): -(i * i + j * j) + Fraction(rng.randint(-10**4, 10**4), 8 * 10**4)
                    for i, j in points
                }),
            ]
        curves = [corner_locus(poly)[0] for poly in polys]
        for c1, c2 in itertools.combinations_with_replacement(curves, 2):
            yield d, c1, c2


def check_box_filtered_intersection(pairs, seed):
    """stable_intersection and stable_intersection_generic against the
    same with stable_intersection_reference on every pair: the points, the
    NonTransverse message and the translation chosen; the counts of pairs
    that raised at first and of those the generic retry had to move."""
    raised = moved = 0
    for k, (d, c1, c2) in enumerate(pairs):
        got = _locus_outcome(lambda c: stable_intersection(c1, c), c2)
        assert got == _locus_outcome(lambda c: stable_intersection_reference(c1, c), c2), (d, k)
        raised += isinstance(got[0], type)
        got = stable_intersection_generic(c1, c2, seed=seed + k)
        original = tropical.stable_intersection
        tropical.stable_intersection = stable_intersection_reference
        try:
            want = stable_intersection_generic(c1, c2, seed=seed + k)
        finally:
            tropical.stable_intersection = original
        assert got == want, (d, k)
        assert sum(m for _, m in got[0]) == d * d
        moved += got[1] != (0, 0)
    return raised, moved


def test_box_filtered_intersection_matches_the_reference():
    raised, moved = check_box_filtered_intersection(intersection_pairs(random.Random(8), range(1, 9)), 500)
    assert raised == moved and 50 < raised < 200


def bench_pairs(seed):
    """The coarse/fine polynomial pairs of the benchmark's tropicalize
    corpus at seed, drawn in the order perfbench/workloads.py draws them:
    on T4 x8, T6 x4 and T8 x1, integer coefficients on every lattice point
    (coarse) and near-concave lifts -(i^2 + j^2) + eps, |eps| <= 1/8, that
    split every unit square (fine).  A list of (d, coarse, fine, the seed
    of the pair's generic retry)."""
    rng = random.Random(seed)
    pairs = []
    for d, k in ((4, 8), (6, 4), (8, 1)):
        coarse = [random_polynomial(rng, triangle(d), denom=1) for _ in range(k)]
        fine = [fine_polynomial(rng, d) for _ in range(k)]
        pairs += [(d, c, f, rng.randrange(10**6)) for c, f in zip(coarse, fine)]
    return pairs


def test_integer_keyed_intersection_matches_the_reference_on_the_bench_corpus():
    # the points, their multiplicities and order, the NonTransverse message
    # and the generic retry's translation, as with Fraction keys, on every
    # coarse/fine pair of seeds 0-2 and on each curve against itself
    pairs = []
    for seed in range(3):
        for d, coarse, fine, _ in bench_pairs(seed):
            c, f = corner_locus(coarse)[0], corner_locus(fine)[0]
            pairs += [(d, c, f), (d, c, c), (d, f, f)]
    raised, moved = check_box_filtered_intersection(pairs, 39)
    assert len(pairs) == 117 and raised == moved >= 78


def test_intersection_points_of_different_denominators_pinned():
    # a line and a conic meet at x = -4 and at x = -38/15: sorted by their
    # values, not by the numerators of a frame or of a reduced triple
    line, _ = corner_locus(TropicalPolynomial.make({(0, 0): 0, (1, 0): 4, (0, 1): Fraction(-1, 3)}))
    conic, _ = corner_locus(TropicalPolynomial.make({
        (0, 0): Fraction(2, 3), (1, 0): Fraction(1, 3), (0, 1): 2,
        (2, 0): Fraction(-1, 2), (1, 1): 3, (0, 2): Fraction(1, 5),
    }))
    want = [((Fraction(-4), Fraction(-4, 3)), 1), ((Fraction(-38, 15), Fraction(9, 5)), 1)]
    for c1, c2 in ((line, conic), (conic, line)):
        got = stable_intersection(c1, c2)
        assert got == want == stable_intersection_reference(c1, c2)
        assert all(type(x) is type(y) is Fraction for (x, y), _ in got)


def test_generic_intersection_calls_the_module_attribute(monkeypatch):
    # stable_intersection_generic looks stable_intersection up on the module
    # at each try, so a wrapper set there (the benchmark tracer's, which
    # counts the retries) sees every try
    calls = []
    original = tropical.stable_intersection
    monkeypatch.setattr(tropical, "stable_intersection", lambda c1, c2: calls.append(c2) or original(c1, c2))
    l1, _ = corner_locus(tropical_line())
    l2, _ = corner_locus(tropical_line(Fraction(7, 3), Fraction(1, 2), 0))
    assert stable_intersection_generic(l1, l2, seed=1) == (original(l1, l2), (0, 0))
    assert calls == [l2]
    del calls[:]
    points, shift = stable_intersection_generic(l1, l1, seed=1)
    assert shift != (0, 0) and len(calls) >= 2
    assert calls[0] is l1 and calls[-1] == l1.translate(shift) and points == original(l1, calls[-1])


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
    # the plane quintics of genus 3 (2,496 curves) at one seed
    specs = [(DiagramSpec(triangle(4), (0, 1), 0, (), (), (), (4,)), (0, 3)),
             (DiagramSpec(trapezium(1, 3, 1), (0, 1), 0, (), (), (1,), (4,)), (0, 3)),
             (DiagramSpec(diamond(), (0, 1), 1), (0, 3)),
             (DiagramSpec(triangle(5), (0, 1), 3, (), (), (), (5,)), (0,))]
    crossings = 0
    for spec, seeds in specs:
        for diag in enumerate_diagrams(spec):
            for marking in enumerate_markings(diag, spec):
                for seed in seeds:
                    realization, _ = realize_stretched(diag, marking, spec, seed=seed)
                    pc = realization.curve
                    curve = pc.to_plane_curve(newton=spec.polygon)
                    assert curve == to_plane_curve_brute_force(pc, spec.polygon)
                    crossings += len(curve.crossings)
    assert crossings > 9000


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
    """PlaneTropicalCurve.chains by walking successor links: at each
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
    """curve.chains, after checking that it gives the reference's chains in
    the reference's order: the same piece tags and the same multiset of
    endpoints per chain."""
    got = curve.chains

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


def _with_parallel_pieces(rng, pc):
    """pc with one or two pieces added along the supporting lines of its
    own pieces, or beside them: segments and rays that overlap a piece,
    touch its end, lie beyond it, or are parallel to it one third off."""
    pos, edges = list(pc.positions), list(pc.edges)

    def vertex(p):
        if p not in pos:
            pos.append(p)
        return pos.index(p)

    for _ in range(rng.randint(1, 2)):
        e = rng.choice(pc.edges)
        p, u = pc.positions[e.a], e.direction
        off = rng.choice((0, Fraction(1, 3)))
        s = Fraction(rng.randint(-8, 8), 2)
        a = vertex((p[0] + s * u[0] - off * u[1], p[1] + s * u[1] + off * u[0]))
        if rng.random() < 0.6:
            t = s + Fraction(rng.randint(1, 8), 2)
            b = vertex((p[0] + t * u[0] - off * u[1], p[1] + t * u[1] + off * u[0]))
            edges.append(PEdge(a, b, 1, u))
        else:
            edges.append(PEdge(a, -1, 1, rng.choice((u, scale(u, -1)))))
    return ParametrizedCurve.build(pos, edges)


def test_parallel_pieces_raise_as_in_the_brute_force():
    """Curves with pieces added along or beside their own: the sweep raises
    NonTransverse, with the same message, exactly when the scan of every
    pair does, and otherwise splits the pieces as it does."""
    rng = random.Random(45)
    seen = Counter()
    for trial in range(300):
        grid, denom = ((3, 1), (6, 2), (40, 9))[trial % 3]
        pc = _with_parallel_pieces(rng, _random_parametrized_curve(rng, grid, denom))
        got = _plane_outcome(pc.to_plane_curve, triangle(1))
        assert got == _plane_outcome(to_plane_curve_brute_force, pc, triangle(1))
        seen["raised" if isinstance(got, str) else "crossed" if got.crossings else "plain"] += 1
    assert seen["raised"] > 150 and seen["crossed"] > 40 and seen["plain"] > 5, seen


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
        for partition in (lambda curve: curve.chains, chain_partition_reference):
            with pytest.raises(UnsupportedShape) as caught:
                partition(marked)
            assert str(caught.value) == message


def _genus_corpus():
    """(spec, marking, plane curve) for every marked diagram of the realize
    corpus, T4 g=1..3 and trapezium(1, 3, 1) g=0, 1 with beta+ = (1),
    realized at seed 0: 898 curves."""
    from test_realize import REALIZE_CORPUS, _marked

    specs = REALIZE_CORPUS + [DiagramSpec(triangle(4), (0, 1), g, (), (), (), (4,)) for g in (1, 2, 3)]
    specs += [DiagramSpec(trapezium(1, 3, 1), (0, 1), g, (), (), (1,), (4,)) for g in (0, 1)]
    corpus = []
    for spec in specs:
        for diag, marking in _marked(spec):
            pc = realize_stretched(diag, marking, spec, seed=0)[0].curve
            corpus.append((spec, marking, pc.to_plane_curve(spec.polygon)))
    assert len(corpus) == 340 + 137 + 421
    return corpus


def test_realized_curves_have_the_genus_of_their_spec():
    # the plane curve's geometric genus, p_a - delta checked against the
    # separated curve, is the genus the diagram was counted at
    for spec, marking, curve in _genus_corpus():
        assert geometric_genus(curve) == spec.genus, (spec, marking)


# where a piece lies on its line, as the pairwise reducedness test and the
# parallel branch of _intersect_pieces read it before _line_span: an
# interval with None for an infinite end, and the overlap of two intervals
# named 'pos', 'point' or 'empty'


def _canonical_direction_reference(u):
    return u if u[0] > 0 or (u[0] == 0 and u[1] > 0) else scale(u, -1)


def _piece_interval_reference(p, q, u, canon):
    t0 = canon[0] * p[0] + canon[1] * p[1]
    if q is not None:
        t1 = canon[0] * q[0] + canon[1] * q[1]
        return (min(t0, t1), max(t0, t1))
    return (t0, None) if u == canon else (None, t0)


def _intervals_overlap_reference(i1, i2):
    lo = [x for x in (i1[0], i2[0]) if x is not None]
    hi = [x for x in (i1[1], i2[1]) if x is not None]
    lo = max(lo) if lo else None
    hi = min(hi) if hi else None
    if lo is None or hi is None or lo < hi:
        return "pos"
    return "point" if lo == hi else "empty"


def _line_key_reference(p, u):
    n = perp(_canonical_direction_reference(u))
    return (n, n[0] * p[0] + n[1] * p[1])


def _overlap_reference(piece1, piece2):
    """The overlap kind of two pieces (p, q, u) on one line."""
    (p1, q1, u1), (p2, q2, u2) = piece1, piece2
    canon = _canonical_direction_reference(u1)
    return _intervals_overlap_reference(
        _piece_interval_reference(p1, q1, u1, canon), _piece_interval_reference(p2, q2, u2, canon)
    )


def overlapping_pairs_reference(curve):
    """The pairs of tags of pieces on one line with a positive-length common
    stretch, read in the curve's integer frame, line by line in the order
    of their first pieces and pairwise in the order of the pieces."""
    by_line = {}
    for p, q, u, _, tag in curve.pieces(curve.frame[1]):
        by_line.setdefault(_line_key_reference(p, u), []).append(((p, q, u), tag))
    return [
        (tag1, tag2)
        for pieces in by_line.values()
        for (piece1, tag1), (piece2, tag2) in itertools.combinations(pieces, 2)
        if _overlap_reference(piece1, piece2) == "pos"
    ]


def check_reduced_reference(curve):
    """_check_reduced by every pair of pieces on one line, naming the first
    pair that overlaps."""
    for tag1, tag2 in overlapping_pairs_reference(curve)[:1]:
        raise NonReduced(f"pieces {tag1} and {tag2} overlap on a common line")


def parallel_hit_reference(p1, q1, u1, p2, q2, u2):
    """_intersect_pieces on two pieces of one line: None, NonTransverse, or
    ((x, y, den), True) at the one point where they touch."""
    kind = _overlap_reference((p1, q1, u1), (p2, q2, u2))
    if kind == "empty":
        return None
    if kind == "pos":
        raise NonTransverse("pieces overlap on a common supporting line")
    canon = _canonical_direction_reference(u1)
    i1 = _piece_interval_reference(p1, q1, u1, canon)
    i2 = _piece_interval_reference(p2, q2, u2, canon)
    t = max(x for x in (i1[0], i2[0]) if x is not None)
    n2 = canon[0] ** 2 + canon[1] ** 2
    t0 = canon[0] * p1[0] + canon[1] * p1[1]
    return (p1[0] * n2 + (t - t0) * canon[0], p1[1] * n2 + (t - t0) * canon[1], n2), True


def _unsplit_plane_curve(pc):
    """The pieces of pc as a plane curve record, not split at crossings, so
    that overlapping pieces stay."""
    segments = tuple(Segment(e.a, e.b, e.weight, e.direction) for e in pc.edges if e.b >= 0)
    rays = tuple(Ray(e.a, e.direction, e.weight) for e in pc.edges if e.b < 0)
    return PlaneTropicalCurve(pc.positions, segments, rays, frozenset(), triangle(1))


def _hand_made_lines():
    """Curves of pieces on one line, as (name, parametrized curve)."""
    x = [(Fraction(k), Fraction(0)) for k in range(4)]
    right, left = (1, 0), (-1, 0)
    return [
        ("segment inside a ray", ParametrizedCurve.build(x[:3], [PEdge(0, -1, 1, right), PEdge(1, 2, 1, right)])),
        ("segment beyond a ray's base", ParametrizedCurve.build(x[:3], [PEdge(2, -1, 1, right), PEdge(0, 1, 1, right)])),
        ("two rays to -inf", ParametrizedCurve.build(x[:2], [PEdge(0, -1, 1, left), PEdge(1, -1, 2, left)])),
        ("opposite rays at one point", ParametrizedCurve.build(x[:1], [PEdge(0, -1, 1, right), PEdge(0, -1, 1, left)])),
        ("opposite rays apart", ParametrizedCurve.build(x[:2], [PEdge(1, -1, 1, right), PEdge(0, -1, 1, left)])),
        ("opposite rays facing", ParametrizedCurve.build(x[:2], [PEdge(0, -1, 1, right), PEdge(1, -1, 1, left)])),
        ("segments end to end", ParametrizedCurve.build(x, [PEdge(2, 1, 1, left), PEdge(2, 3, 1, right),
                                                            PEdge(0, 1, 1, right)])),
        ("segments apart", ParametrizedCurve.build(x, [PEdge(0, 1, 1, right), PEdge(3, 2, 1, left)])),
        ("segments overlapping", ParametrizedCurve.build(x, [PEdge(0, 2, 1, right), PEdge(3, 1, 1, left)])),
        # a vertical line through three horizontal ones: split, it is a
        # chain of segments end to end through crossings
        ("vertical chain through crossings", ParametrizedCurve.build(
            [(0, -3), (0, 3), (-2, -1), (2, -1), (-2, 1), (2, 1), (-2, 2), (2, 2)],
            [PEdge(0, 1, 1, (0, 1)), PEdge(2, 3, 1, right), PEdge(4, 5, 1, right), PEdge(7, 6, 1, left),
             PEdge(1, -1, 1, (0, 1)), PEdge(0, -1, 1, (0, -1))],
        )),
    ]


def test_span_rule_matches_the_pairwise_reference():
    # _check_reduced raises exactly when the pairwise test does, naming two
    # pieces that overlap, and the parallel branch of _intersect_pieces
    # returns or raises as the interval reference, on every pair of pieces
    # of one line: on the realized curves, on random curves split and
    # unsplit, and on hand-made lines
    curves = [curve for _, _, curve in _genus_corpus()]
    rng = random.Random(47)
    for trial in range(300):
        pc = _random_parametrized_curve(rng, *((3, 1), (6, 2), (40, 9))[trial % 3])
        if trial % 2:
            pc = _with_parallel_pieces(rng, pc)
        curves.append(_unsplit_plane_curve(pc))
        split = _plane_outcome(pc.to_plane_curve, triangle(1))
        if not isinstance(split, str):
            curves.append(split)
    for _ in range(40):
        curves.append(_dense_parametrized_curve(rng).to_plane_curve(triangle(1)))
    for name, pc in _hand_made_lines():
        curves.append(_unsplit_plane_curve(pc))
        if name == "vertical chain through crossings":
            chain = pc.to_plane_curve(triangle(1))
            assert len(chain.crossings) == 3 and check_reduced_reference(chain) is None
            curves.append(chain)
    seen = Counter()
    for curve in curves:
        kind, message = _outcome_of(tropical._check_reduced, curve)
        assert kind is _outcome_of(check_reduced_reference, curve)[0], curve
        seen["not reduced" if kind is NonReduced else "reduced"] += 1
        if kind is NonReduced:
            # the pair named may not be the first of the pairwise order
            pairs = overlapping_pairs_reference(curve)
            assert message in {f"pieces {a} and {b} overlap on a common line"
                               for pair in pairs for a, b in (pair, pair[::-1])}, curve
        pieces = [(p, q, u) for p, q, u, _, _ in curve.pieces(curve.frame[1])]
        for (p1, q1, u1), (p2, q2, u2) in itertools.combinations(pieces, 2):
            if det(u1, u2) != 0 or det(u1, sub(p2, p1)) != 0:
                continue
            for args in ((p1, q1, u1, p2, q2, u2), (p2, q2, u2, p1, q1, u1)):
                got = _outcome_of(lambda a: _intersect_pieces(*a), args)
                assert got == _outcome_of(lambda a: parallel_hit_reference(*a), args), args
                seen["disjoint" if got[1] is None else "overlap" if got[0] is NonTransverse else "touch"] += 1
    assert len(curves) >= 898 + 300 + 40 + 10
    assert seen["not reduced"] >= 100 and seen["reduced"] >= 1000, seen
    assert min(seen["disjoint"], seen["overlap"], seen["touch"]) >= 100, seen


def delta_invariant_reference(curve):
    """delta_invariant through each vertex's dual LatticePolygon: the
    vectors w * u of its star sorted by angle, turned by +pi/2 and summed
    from (0, 0), a triangle's interior points counted row by row, a
    parallelogram's area halved from the shoelace, all summed in Fractions;
    the chains come from chain_partition_reference."""
    tropical._check_reduced(curve)
    delta = Fraction(0)
    for v in range(len(curve.vertices)):
        total = (0, 0)
        pts = [total]
        for wu in lattice.sort_by_angle([scale(u, w) for _, u, w in curve.incidence.get(v, ())]):
            total = lattice.add(total, perp(wu))
            pts.append(total)
        if total != (0, 0):
            raise NotClosed(f"vertex {v} is not balanced")
        cell = lattice.LatticePolygon(pts[:-1])
        if v in curve.crossings:
            if not _is_parallelogram(cell):
                raise UnsupportedShape(f"crossing {v} has a non-parallelogram cell")
            delta += Fraction(cell.double_area(), 2)
        else:
            if len(cell.vertices) != 3:
                raise UnsupportedShape(f"vertex {v} has a non-triangle cell")
            delta += cell.interior_points()
    for chain, endpoints in chain_partition_reference(curve):
        if all(e is not None for e in endpoints):
            weights = {
                (curve.segments[i].weight if kind == "s" else curve.rays[i].weight)
                for kind, i in chain
            }
            if len(weights) != 1:
                raise InvariantViolation(f"chain {chain} changes weight: {sorted(weights)}")
            delta += weights.pop() - 1
    if delta.denominator != 1:
        raise InvariantViolation(f"delta invariant {delta} is not an integer")
    return int(delta)


def abstract_genus_reference(curve):
    """abstract_genus on the chains of chain_partition_reference."""
    real = [v for v in range(len(curve.vertices)) if v not in curve.crossings]
    a = 0
    links = []
    for chain, endpoints in chain_partition_reference(curve):
        if all(e is None for e in endpoints):
            raise NonReduced("curve contains a full line through crossings")
        if all(e is not None for e in endpoints):
            a += 1
            links.append(endpoints)
    if lattice.component_count(real, links) != 1:
        raise NonReduced("separated curve is disconnected; genus undefined")
    return 1 - len(real) + a


def check_balancing_reference(curve):
    """check_balancing by summing scaled vectors at each vertex."""
    for star in curve.incidence.values():
        total = (0, 0)
        for _, u, w in star:
            total = lattice.add(total, scale(u, w))
        if total != (0, 0):
            return False
    return True


def _star_record(vertices, rays, segments=(), crossings=()):
    """A plane curve record with these pieces, which build may refuse; its
    Newton polygon is a placeholder that delta_invariant does not read."""
    vertices = tuple((Fraction(x), Fraction(y)) for x, y in vertices)
    return PlaneTropicalCurve(vertices, tuple(segments), tuple(rays), frozenset(crossings), triangle(1))


def _tampered_stars():
    """Curves with stars that break the rules of delta_invariant, as
    (curve, what delta_invariant raises or returns)."""
    line = [Ray(0, (-1, 0), 1), Ray(0, (0, -1), 1), Ray(0, (1, 1), 1)]
    cross = [Ray(0, (1, 0), 2), Ray(0, (-1, 0), 2), Ray(0, (1, 1), 3), Ray(0, (-1, -1), 3)]
    x = [Ray(0, (1, 0), 1), Ray(0, (-1, 0), 1), Ray(0, (0, 1), 1), Ray(0, (0, -1), 1)]
    corner = [Ray(1, (1, 0), 1), Ray(1, (0, 1), 1)]
    lopsided = [Ray(0, (1, 0), 2), Ray(0, (-1, 0), 1), Ray(0, (0, 1), 1), Ray(0, (-1, -1), 1)]
    unbalanced_cross = [Ray(0, (1, 0), 2), Ray(0, (-1, 0), 1), Ray(0, (0, 1), 1), Ray(0, (0, -1), 1)]
    trapezoid, _ = corner_locus(TropicalPolynomial.make({(0, 0): 0, (2, 0): 0, (3, 1): 0, (0, 1): 0}))
    not_balanced = (NotClosed, "vertex 0 is not balanced")
    degenerate = (DegeneratePolygon, "need at least 3 non-collinear vertices")
    four_valent = (UnsupportedShape, "vertex 0 has a non-triangle cell")
    not_a_parallelogram = (UnsupportedShape, "crossing 0 has a non-parallelogram cell")
    return [
        # well-formed stars: a crossing of area 2 * 3, a triangle with an
        # interior point, a tropical line
        (_star_record([(0, 0)], cross, crossings={0}), 6),
        (_star_record([(0, 0)], [Ray(0, u, 3) for _, u, _ in line]), 1),
        (_star_record([(0, 0)], line), 0),
        # unbalanced
        (_star_record([(0, 0)], [Ray(0, (-1, 0), 2)] + line[1:]), not_balanced),
        # no pieces
        (_star_record([(0, 0), (5, 5)], line), degenerate),
        # straight 2-valent: the diagonal ray of a line broken at (1, 1)
        (_star_record([(0, 0), (1, 1)], line[:2] + [Ray(1, (1, 1), 1)], [Segment(0, 1, 1, (1, 1))]), degenerate),
        # two opposite rays, and a crossing with two
        (_star_record([(0, 0)], x[:2]), degenerate),
        (_star_record([(0, 0)], x[:2], crossings={0}), degenerate),
        # 3-valent crossing
        (_star_record([(0, 0)], line, crossings={0}), not_a_parallelogram),
        # crossings with unequal opposite weights, balanced or not
        (_star_record([(0, 0)], lopsided, crossings={0}), not_a_parallelogram),
        (_star_record([(0, 0)], unbalanced_cross, crossings={0}), not_balanced),
        # 4-valent non-crossing: a trapezoid, a lopsided star and an X
        (trapezoid, four_valent),
        (_star_record([(0, 0)], lopsided), four_valent),
        (_star_record([(0, 0)], x), four_valent),
        # faults at two vertices: the first vertex's fault is raised
        (_star_record([(0, 0), (5, 5)], x + corner), four_valent),
        (_star_record([(5, 5), (0, 0)], [Ray(1, u, w) for _, u, w in x] + [Ray(0, u, w) for _, u, w in corner]),
         not_balanced),
        (_star_record([(0, 0), (5, 5)], x[:2] + corner), degenerate),
        (_star_record([(0, 0), (5, 5)], line + [Ray(1, u, w) for _, u, w in x[:2]], crossings={0, 1}),
         not_a_parallelogram),
    ]


def _outcome_of(fn, curve):
    """(type, value) of fn(curve), or the type and message of the error it
    raises."""
    try:
        value = fn(curve)
    except (lattice.TropicoError, InvariantViolation) as exc:
        return type(exc), str(exc)
    return type(value), value


def test_delta_genus_and_balancing_match_the_polygon_reference():
    # delta_invariant, abstract_genus and check_balancing give the value, or
    # the exception type and message, of the route through dual polygons
    from test_render import tropicalize_corpus

    curves = [curve for _, _, curve in _genus_corpus()]
    curves += [corner_locus(poly)[0] for seed in (0, 1, 2) for poly in tropicalize_corpus(seed)]
    # the dense random curves of _splits_per_piece, drawn after the 400
    # random curves of the same generator
    rng = random.Random(44)
    for trial in range(400):
        _random_parametrized_curve(rng, *((3, 1), (6, 2), (40, 9))[trial % 3])
    curves += [_dense_parametrized_curve(rng).to_plane_curve(triangle(1)) for _ in range(60)]
    tampered = _tampered_stars()
    raised = Counter()
    for curve in curves + [curve for curve, _ in tampered]:
        for fn, reference in (
            (delta_invariant, delta_invariant_reference),
            (abstract_genus, abstract_genus_reference),
            (check_balancing, check_balancing_reference),
        ):
            got = _outcome_of(fn, curve)
            assert got == _outcome_of(reference, curve), (fn.__name__, curve)
            if issubclass(got[0], Exception):
                raised[fn.__name__, got[0].__name__] += 1
    for curve, want in tampered:
        got = _outcome_of(delta_invariant, curve)
        assert got == (want if isinstance(want, tuple) else (int, want)), curve
    assert len(curves) == 898 + 54 + 60
    assert raised["delta_invariant", "NotClosed"] >= 60 and raised["delta_invariant", "DegeneratePolygon"] >= 6
    assert raised["delta_invariant", "UnsupportedShape"] >= 8 and raised["abstract_genus", "UnsupportedShape"] >= 4
    assert sum(not check_balancing(curve) for curve in curves) >= 55


def test_delta_is_the_interior_points_and_areas_of_the_cells():
    # on every corner locus whose cells are triangles and parallelograms,
    # delta is the triangles' interior points, the parallelograms' areas
    # and w - 1 per finite chain: the star formulas against the polygons
    # of the hull walk
    from test_render import tropicalize_corpus

    def product(f, g):
        terms = {}
        for (e1, a1), (e2, a2) in itertools.product(f.terms, g.terms):
            e = (e1[0] + e2[0], e1[1] + e2[1])
            terms[e] = max(terms.get(e, a1 + a2), a1 + a2)
        return TropicalPolynomial.make(terms)

    rng = random.Random(5)
    polys = [poly for seed in (0, 1, 2) for poly in tropicalize_corpus(seed)]
    polys += [random_polynomial(rng, shape, denom=1, spread=3)
              for shape in (triangle(2), triangle(3), diamond(), trapezium(2, 2, 1)) for _ in range(30)]
    # unions of two random curves, whose crossings are parallelograms
    polys += [product(*(random_polynomial(rng, triangle(rng.randint(1, 2))) for _ in "fg")) for _ in range(40)]
    loci = Counter()
    for poly in polys:
        curve, subdivision = corner_locus(poly)
        if not all(len(c.vertices) == 3 or _is_parallelogram(c) for c in subdivision.cells):
            continue
        want = 0
        for cell in subdivision.cells:
            if len(cell.vertices) == 3:
                want += cell.interior_points()
                loci["interior points"] += cell.interior_points() > 0
            else:
                want += cell.double_area() // 2
                loci["parallelograms"] += 1
        for chain, endpoints in chain_partition_reference(curve):
            if None not in endpoints:
                w = curve.segments[chain[0][1]].weight
                want += w - 1
                loci["heavy chains"] += w > 1
        assert delta_invariant(curve) == want, poly
        loci["loci"] += 1
    assert loci["loci"] >= 190
    assert loci["interior points"] >= 50 and loci["parallelograms"] >= 60 and loci["heavy chains"] >= 50


def test_genus_builds_no_polygon_and_partitions_the_chains_once(monkeypatch):
    """geometric_genus of a realized curve with crossings constructs no
    LatticePolygon and runs the union-find of the chain partition once."""
    from test_realize import _marked

    spec = DiagramSpec(triangle(4), (0, 1), 2, (), (), (), (4,))
    built = {"polygons": 0, "partitions": 0}
    polygon_init, roots = lattice.LatticePolygon.__init__, tropical.component_roots

    def counted_init(self, vertices):
        built["polygons"] += 1
        polygon_init(self, vertices)

    def counted_roots(nodes, links):
        built["partitions"] += 1
        return roots(nodes, links)

    crossings = 0
    for diag, marking in _marked(spec):
        pc = realize_stretched(diag, marking, spec, seed=0)[0].curve
        curve = pc.to_plane_curve(spec.polygon)
        built.update(polygons=0, partitions=0)
        with monkeypatch.context() as m:
            m.setattr(lattice.LatticePolygon, "__init__", counted_init)
            m.setattr(tropical, "component_roots", counted_roots)
            assert geometric_genus(curve) == 2
        assert built == {"polygons": 0, "partitions": 1}
        crossings += len(curve.crossings)
    assert crossings > 0


def test_a_polynomial_needs_a_term_and_evaluates_as_a_maximum():
    with pytest.raises(TropicalError, match="empty support"):
        TropicalPolynomial.make({})
    poly = TropicalPolynomial.make({(0, 0): 1, (1, 0): 0, (0, 1): Fraction(-1, 2)})
    # max(1, 0 + 2, -1/2 + 3)
    assert poly((2, 3)) == Fraction(5, 2)
    assert poly((0, 0)) == 1


def test_stable_intersection_generic_gives_up_after_its_tries(monkeypatch):
    tries = []

    def never_transverse(c1, c2):
        tries.append(c2)
        raise NonTransverse("intersection at a vertex")

    monkeypatch.setattr(tropical, "stable_intersection", never_transverse)
    line, _ = corner_locus(TropicalPolynomial.make({(0, 0): 0, (1, 0): 0, (0, 1): 0}))
    with pytest.raises(NonTransverse, match="no generic translation found"):
        stable_intersection_generic(line, line)
    # c2 itself, then a new translate on each later try
    assert len(tries) == tropical.INTERSECTION_TRIES
    assert tries[0] is line and len({c.vertices for c in tries}) == len(tries)
