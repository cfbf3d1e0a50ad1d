import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from test_tropical import bench_pairs
from tropico import lattice
from tropico.lattice import (
    DegeneratePolygon,
    LatticeError,
    LatticePolygon,
    NonPositiveDeterminant,
    NotPrimitive,
    NotTransverse,
    Record,
    convex_hull,
    cubic_triangle,
    det,
    diamond,
    direction_data,
    integral_length,
    is_primitive,
    is_transverse,
    octic_quadrilateral,
    perp,
    random_lattice_polygon,
    slope_of,
    slope_reference,
    slope_vector,
    transverse_directions,
    trapezium,
    triangle,
    vertex_singularity,
)
from tropico.tropical import corner_locus


def test_integral_length_examples():
    assert integral_length((0, 0), (3, 0)) == 3
    assert integral_length((0, 0), (2, 4)) == 2
    # long edge of the octic quadrilateral: two conic components
    assert integral_length((2, 2), (0, 0)) == 2
    assert integral_length((5, 7), (5, 7)) == 0


def test_integral_length_symmetric_additive():
    rng = random.Random(1)
    for _ in range(50):
        p = (rng.randint(-9, 9), rng.randint(-9, 9))
        v = (rng.randint(-5, 5), rng.randint(-5, 5))
        q = (p[0] + v[0], p[1] + v[1])
        r = (q[0] + 2 * v[0], q[1] + 2 * v[1])
        assert integral_length(p, q) == integral_length(q, p)
        assert integral_length(p, r) == integral_length(p, q) + integral_length(q, r)


def test_double_area():
    assert triangle(3).double_area() == 9
    assert LatticePolygon([(0, 0), (1, 0), (1, 1), (0, 1)]).double_area() == 2
    assert diamond().double_area() == 4
    assert octic_quadrilateral().double_area() == 8


def test_point_counts():
    assert triangle(3).interior_points() == 1
    assert triangle(3).boundary_points() == 9
    assert trapezium(2, 3, 2).interior_points() == 8
    assert diamond().interior_points() == 1
    assert diamond().boundary_points() == 4
    assert octic_quadrilateral().interior_points() == 2
    assert octic_quadrilateral().boundary_points() == 6



def interior_points_reference(poly):
    """Interior lattice points by testing every point of the bounding box
    against every edge."""
    xs = [p[0] for p in poly.vertices]
    ys = [p[1] for p in poly.vertices]
    count = 0
    for x in range(min(xs) + 1, max(xs)):
        for y in range(min(ys) + 1, max(ys)):
            if poly.contains((x, y), strict=True):
                count += 1
    return count


def interior_points_row_scan(poly):
    """Interior lattice points, counted row by row: a height strictly
    between the lowest and highest vertex meets a falling edge at x = a
    and a rising one at x = b, and the integers strictly between a and b
    are inside (the scan that interior_points made before it shared the
    column scan of lattice_points)."""
    ys = [p[1] for p in poly.vertices]
    slanted = [(p, q) for p, q in poly.edges() if p[1] != q[1]]
    count = 0
    for y in range(min(ys) + 1, max(ys)):
        for (px, py), (qx, qy) in slanted:
            if min(py, qy) <= y < max(py, qy):  # one edge per side
                num, den = px * (qy - py) + (y - py) * (qx - px), qy - py  # x = num / den
                count += -(-num // den) - 1 if den > 0 else -(num // den)
    return count


def test_interior_points_match_the_reference():
    # random hulls, many moved into negative coordinates, and tall and
    # wide polygons, whose columns or rows are long and many: the column
    # count equals the bounding-box count and the row count
    rng = random.Random(11)
    polys = [triangle(d) for d in range(1, 8)] + [diamond(), octic_quadrilateral()]
    polys += [trapezium(r, a, b) for r in range(3) for a in range(1, 4) for b in range(1, 4)]
    while len(polys) < 1200:
        poly = random_lattice_polygon(rng, rng.choice((2, 5, 9, 20)), rng.randint(3, 12))
        polys.append(poly.translate((rng.randint(-30, 30), rng.randint(-30, 30))))
    while len(polys) < 1400:
        # tall, of at most 7 columns and 801 rows, and its transpose, wide
        corners = [(rng.randint(-3, 3), rng.randint(-400, 400)) for _ in range(rng.randint(3, 5))]
        try:
            poly = convex_hull(corners)
        except DegeneratePolygon:
            continue
        polys += [poly, LatticePolygon([(y, x) for x, y in poly.vertices])]
    tall = wide = negative = 0
    for poly in polys:
        assert poly.interior_points() == interior_points_reference(poly) == interior_points_row_scan(poly), poly
        xs, ys = [p[0] for p in poly.vertices], [p[1] for p in poly.vertices]
        tall += max(ys) - min(ys) > 20 * (max(xs) - min(xs))
        wide += max(xs) - min(xs) > 20 * (max(ys) - min(ys))
        negative += min(xs) < 0 and min(ys) < 0
    assert tall > 50 and wide > 50 and negative > 300


def lattice_points_reference(poly):
    """The lattice points of poly, boundary included, in (x, y) order: the
    points of the bounding box that contains keeps, each tested against
    every edge."""
    xs = [p[0] for p in poly.vertices]
    ys = [p[1] for p in poly.vertices]
    edges = [(px, py, qx - px, qy - py) for (px, py), (qx, qy) in poly.edges()]
    return [
        (x, y)
        for x in range(min(xs), max(xs) + 1)
        for y in range(min(ys), max(ys) + 1)
        if all(ex * (y - py) - ey * (x - px) >= 0 for px, py, ex, ey in edges)
    ]


def test_lattice_points_equal_the_bounding_box_filtered_by_contains():
    # random hulls, some moved to negative coordinates, rectangles and
    # trapezia (vertical edges), and thin slivers: triangles of area 1/2
    # to 3/2 with sides up to 60 long, many columns of which hold no point
    rng = random.Random(17)
    polys = [triangle(d) for d in range(1, 6)] + [diamond(), octic_quadrilateral()]
    polys += [trapezium(r, a, b).translate((-5, -7)) for r in range(3) for a in range(1, 4) for b in range(1, 4)]
    polys += [LatticePolygon([(0, 0), (w, 0), (w, h), (0, h)]).translate((-w, -h)) for w in (1, 3) for h in (1, 4)]
    while len(polys) < 400:
        poly = random_lattice_polygon(rng, rng.choice((2, 5, 9, 12)), rng.randint(3, 10))
        polys.append(poly.translate((rng.randint(-40, 20), rng.randint(-40, 20))))
    while len(polys) < 700:
        u = (rng.randint(-30, 30), rng.randint(-30, 30))
        v = (rng.randint(-30, 30), rng.randint(-30, 30))
        if 1 <= abs(det(u, v)) <= 3:
            polys.append(LatticePolygon([(0, 0), u, v]).translate((rng.randint(-9, 9), rng.randint(-9, 9))))
    # unimodular triangles, whose points are their corners: the cells of
    # the fine subdivisions of the tropicalize benchmark at seeds 0-2, and
    # images of the standard triangle under SL2(Z) moves and translations
    polys += [cell for seed in range(3) for *_, fine, _ in bench_pairs(seed)
              for cell in corner_locus(fine)[1].cells]
    moves = [((1, 1), (0, 1)), ((1, -1), (0, 1)), ((1, 0), (1, 1)), ((1, 0), (-1, 1)), ((0, -1), (1, 0))]
    for _ in range(500):
        corners = [(0, 0), (1, 0), (0, 1)]
        for _ in range(rng.randint(1, 8)):
            (a, b), (c, d) = rng.choice(moves)
            corners = [(a * x + b * y, c * x + d * y) for x, y in corners]
        polys.append(LatticePolygon(corners).translate((rng.randint(-20, 9), rng.randint(-20, 9))))
    vertical = unimodular = scanned = 0
    for poly in polys:
        assert poly.lattice_points() == lattice_points_reference(poly), poly
        vertical += any(p[0] == q[0] for p, q in poly.edges())
        if len(poly.vertices) == 3 and poly.double_area() == 1:
            assert poly.lattice_points() == sorted(poly.vertices)
            unimodular += 1
        elif len(poly.vertices) == 3 and poly.double_area() <= 3:
            # by Pick's theorem a point besides the corners: these take the scan
            assert len(poly.lattice_points()) > 3
            scanned += 1
    assert vertical > 50 and unimodular > 1000 and scanned > 100


def test_pick_identity():
    for d in range(1, 7):
        assert triangle(d).pick_identity()
    assert trapezium(2, 3, 2).pick_identity()
    rng = random.Random(7)
    for _ in range(100):
        assert random_lattice_polygon(rng).pick_identity()


def test_clockwise_input_reversed_and_degenerate_rejected():
    cw = LatticePolygon([(0, 0), (0, 3), (3, 0)])
    assert cw == triangle(3)
    with pytest.raises(DegeneratePolygon):
        LatticePolygon([(0, 0), (1, 0)])
    with pytest.raises(DegeneratePolygon):
        LatticePolygon([(0, 0), (1, 0), (2, 0)])  # segment
    with pytest.raises(DegeneratePolygon):
        LatticePolygon([(0, 0), (2, 0), (1, 1), (2, 2), (0, 2)])  # reflex corner


def test_a_polygon_is_immutable_and_copies_as_its_vertices():
    # a polygon is a dict key and a DiagramSpec field, whose direction data
    # is cached: changing it in place would change its hash under them
    poly = triangle(3)
    assert isinstance(poly, Record) and LatticePolygon._fields == ("vertices",)
    assert repr(poly) == "LatticePolygon([(0, 0), (3, 0), (0, 3)])"
    assert poly == LatticePolygon(vertices=[(0, 3), (0, 0), (3, 0)]) and poly != triangle(2)
    assert poly != poly.vertices and len({poly, triangle(3), triangle(2)}) == 2
    vertices, h = poly.vertices, hash(poly)
    with pytest.raises(AttributeError):
        poly.vertices = ((0, 0), (5, 0), (0, 1))
    with pytest.raises(AttributeError):
        poly.other = 1
    with pytest.raises(AttributeError):
        del poly.vertices
    assert poly.vertices == vertices and hash(poly) == h
    for copied in (copy.copy(poly), copy.deepcopy(poly), pickle.loads(pickle.dumps(poly))):
        assert type(copied) is LatticePolygon and repr(copied) == repr(poly)
        assert copied == poly and copied.vertices == vertices and hash(copied) == h
        with pytest.raises(AttributeError):
            copied.vertices = vertices


def test_vertex_singularity_examples():
    # lower-right corner of the trapezium: smooth
    for r in (1, 2, 3):
        assert vertex_singularity((-r, 1), (-1, 0)) == (1, 0)
    # apex of the triangle over F_r: type 1/r(1,1)
    for r in (2, 3, 5):
        assert vertex_singularity((0, -1), (r, -1)) == (r, 1)
    # the cubic-surface triangle: type 1/3(1,2)
    assert vertex_singularity((1, 1), (-1, 2)) == (3, 2)


def test_vertex_singularity_invariants():
    # order 1 iff the directions form a lattice basis; order 2 forces k = 1
    rng = random.Random(5)
    seen2 = 0
    for _ in range(200):
        u = (rng.randint(-4, 4), rng.randint(-4, 4))
        v = (rng.randint(-4, 4), rng.randint(-4, 4))
        try:
            order, k = vertex_singularity(u, v)
        except (NonPositiveDeterminant, NotPrimitive):
            continue
        assert order == det(u, v)
        if order == 1:
            assert k == 0
        if order == 2:
            assert k == 1
            seen2 += 1
    assert seen2 > 0


def test_vertex_singularity_errors():
    with pytest.raises(NonPositiveDeterminant):
        vertex_singularity((1, 0), (1, 0))  # det = 0
    with pytest.raises(NonPositiveDeterminant):
        vertex_singularity((0, 1), (1, 1))  # det = -1
    with pytest.raises(NotPrimitive):
        vertex_singularity((2, 0), (0, 1))


def test_vertex_singularity_never_raises_on_a_corner():
    # with u' and u'' primitive and det > 0 the normal form always exists:
    # its checks after the input checks are invariants
    rng = random.Random(22)
    corners = 0
    while corners < 2000:
        u = (rng.randint(-40, 40), rng.randint(-40, 40))
        v = (rng.randint(-40, 40), rng.randint(-40, 40))
        if not (is_primitive(u) and is_primitive(v)) or det(u, v) <= 0:
            continue
        order, k = vertex_singularity(u, v)
        assert order == det(u, v)
        assert 0 <= k < order and math.gcd(k, order) == 1
        corners += 1


def test_polygon_singularity_report():
    sings = [(order, k) for _, order, k in cubic_triangle().vertex_singularities()]
    assert sings == [(3, 2)] * 3
    assert all(
        (order, k) == (1, 0) for _, order, k in triangle(4).vertex_singularities()
    )


def test_is_transverse_examples():
    for d in range(1, 5):
        assert is_transverse(triangle(d), (0, 1))
    for r in (2, 3):
        assert not is_transverse(trapezium(r, 3, 2), (1, 0))
    assert is_transverse(trapezium(1, 3, 2), (1, 0))
    for dvec in ((0, 1), (1, 0), (1, 1), (1, -1)):
        assert not is_transverse(cubic_triangle(), dvec)
    for poly in (diamond(), octic_quadrilateral()):
        assert is_transverse(poly, (0, 1))
        assert not is_transverse(poly, (1, 1))
        assert not is_transverse(poly, (1, -1))


def test_direction_data_triangle():
    for d in (1, 2, 3, 4):
        dd = direction_data(triangle(d), (0, 1))
        assert dd.D_left == tuple([(1, 0)] * d)
        assert dd.D_right == tuple([(1, 1)] * d)
        assert dd.d_height == dd.d_minus == d
        assert dd.d_plus == 0
        assert dd.thetas_left() == (0,) * d
        assert dd.thetas_right() == (1,) * d


def test_direction_data_trapezium():
    for r, a, b in ((2, 3, 2), (1, 2, 1), (3, 2, 0)):
        dd = direction_data(trapezium(r, a, b), (0, 1))
        assert dd.d_height == a
        assert dd.d_minus == b + a * r
        assert dd.d_plus == b
        assert dd.D_right == tuple([(1, r)] * a)
        assert dd.D_left == tuple([(1, 0)] * a)


def test_direction_data_fixtures():
    dd = direction_data(octic_quadrilateral(), (0, 1))
    assert sorted(dd.D_left) == sorted([(1, -1), (1, 1), (1, 1)])
    assert sorted(dd.D_right) == sorted([(1, -1), (1, 1), (1, 1)])
    assert dd.d_plus == dd.d_minus == 0
    dd2 = direction_data(diamond(), (0, 1))
    assert sorted(dd2.D_left) == sorted([(1, -1), (1, 1)])
    assert sorted(dd2.D_right) == sorted([(1, -1), (1, 1)])


def test_direction_data_boundary_partition():
    rng = random.Random(3)
    found = 0
    while found < 30:
        poly = random_lattice_polygon(rng, max_coord=6)
        for dvec in transverse_directions(poly, 2):
            dd = direction_data(poly, dvec)
            assert 2 * dd.d_height + dd.d_plus + dd.d_minus == poly.boundary_points()
            found += 1


def test_every_transverse_direction_has_floors_and_balanced_sides():
    # what count, enumerate_diagrams and _boundary_choices take on trust:
    # a polygon transverse to d has d_height >= 1, since some edge is not
    # orthogonal to d, and its two sides drift apart by the difference of
    # its bottom and top edges, sum(thetas right) - sum(thetas left) =
    # d- - d+, so a checked spec's tails always balance the thetas
    rng = random.Random(29)
    pairs = 0
    for _ in range(300):
        poly = random_lattice_polygon(rng, rng.choice((3, 6, 9)), rng.randint(3, 10))
        poly = poly.translate((rng.randint(-20, 20), rng.randint(-20, 20)))
        for dvec in transverse_directions(poly, 3):
            dd = direction_data(poly, dvec)
            assert dd.d_height >= 1, (poly, dvec)
            assert sum(dd.thetas_right()) - sum(dd.thetas_left()) == dd.d_minus - dd.d_plus, (poly, dvec)
            pairs += 1
    assert pairs > 400


def test_direction_data_not_transverse():
    with pytest.raises(NotTransverse):
        direction_data(cubic_triangle(), (0, 1))


def test_direction_data_rotation_equivariance():
    # joint rotation of (polygon, direction) rotates the output lists
    def rot(v):
        return perp(v)

    for poly in (triangle(3), trapezium(2, 3, 2), diamond(), octic_quadrilateral()):
        for dvec in transverse_directions(poly, 2):
            dd = direction_data(poly, dvec)
            rpoly = LatticePolygon([rot(v) for v in poly.vertices])
            rdd = direction_data(rpoly, rot(dvec))
            assert sorted(rdd.D_left) == sorted(rot(v) for v in dd.D_left)
            assert sorted(rdd.D_right) == sorted(rot(v) for v in dd.D_right)
            assert (rdd.d_plus, rdd.d_minus, rdd.d_height) == (
                dd.d_plus,
                dd.d_minus,
                dd.d_height,
            )


# The direction data as five helpers computed them, each classifying every
# edge again: the reference for the one-pass direction_data.


def _edge_side(poly, d):
    """Classify counterclockwise edges: -1 left, +1 right, 0 parallel to perp(d)."""
    sides = []
    for w in poly.edge_vectors():
        s = lattice.dot(d, w)
        sides.append(0 if s == 0 else (1 if s > 0 else -1))
    return sides


def left_boundary_edges(poly, d):
    """Edges of the left boundary, each as (tail, head) going down along d."""
    out = []
    for (p, q), side in zip(poly.edges(), _edge_side(poly, d)):
        if side < 0:
            out.append((p, q))
    return out


def right_boundary_edges(poly, d):
    """Edges of the right boundary, reoriented to go down along d."""
    out = []
    for (p, q), side in zip(poly.edges(), _edge_side(poly, d)):
        if side > 0:
            out.append((q, p))
    return out


def is_transverse_reference(poly, d):
    if not lattice.is_primitive(d):
        raise NotPrimitive(f"direction {d} is not primitive")
    for p, q in left_boundary_edges(poly, d) + right_boundary_edges(poly, d):
        if abs(lattice.dot(d, lattice.primitive(lattice.sub(q, p)))) != 1:
            return False
    return True


def direction_data_reference(poly, d):
    if not is_transverse_reference(poly, d):
        raise NotTransverse(f"{poly!r} is not transverse to d={d}")
    pd = perp(d)
    d_left, d_right = [], []
    for edges, target in ((left_boundary_edges(poly, d), d_left),
                          (right_boundary_edges(poly, d), d_right)):
        for p, q in edges:
            u = lattice.primitive(lattice.sub(q, p))
            if lattice.det(pd, u) != 1:
                raise LatticeError(f"boundary edge {p}-{q} is not transverse to d={d}")
            target.extend([perp(u)] * integral_length(p, q))
    d_plus = d_minus = 0
    heights = [lattice.dot(d, v) for v in poly.vertices]
    for (p, q), side in zip(poly.edges(), _edge_side(poly, d)):
        if side == 0:
            h = lattice.dot(d, p)
            if h == max(heights):
                d_plus = integral_length(p, q)
            elif h == min(heights):
                d_minus = integral_length(p, q)
            else:
                raise LatticeError(f"edge {p}-{q} orthogonal to d={d} is neither top nor bottom")
    height = len(d_left)
    if height != len(d_right) or 2 * height + d_plus + d_minus != poly.boundary_points():
        raise LatticeError(
            f"direction data of {poly!r} for d={d}: heights {height}, {len(d_right)},"
            f" d+ = {d_plus}, d- = {d_minus} do not partition the boundary"
        )
    return lattice.DirectionData(
        d=d,
        D_left=tuple(lattice.sort_by_angle(d_left)),
        D_right=tuple(lattice.sort_by_angle(d_right)),
        d_plus=d_plus,
        d_minus=d_minus,
        d_height=height,
    )


def _data_outcome(fn, poly, d):
    """fn's value (with the thetas of direction data), or the type and
    message of the LatticeError it raises."""
    try:
        out = fn(poly, d)
    except LatticeError as exc:
        return type(exc), str(exc)
    if isinstance(out, lattice.DirectionData):
        return out, out.thetas_left(), out.thetas_right()
    return out


def test_direction_data_matches_the_reference():
    rng = random.Random(11)
    directions = [(dx, dy) for dx in range(-3, 4) for dy in range(-3, 4)]
    transverse = 0
    for _ in range(600):
        poly = random_lattice_polygon(rng, max_coord=rng.choice((2, 3, 4, 6)))
        for d in directions:
            assert _data_outcome(is_transverse, poly, d) == _data_outcome(
                is_transverse_reference, poly, d)
            got = _data_outcome(direction_data, poly, d)
            assert got == _data_outcome(direction_data_reference, poly, d)
            transverse += isinstance(got[0], lattice.DirectionData)
    assert transverse > 1000


def test_direction_data_translation_invariance():
    dd = direction_data(triangle(3), (0, 1))
    dd2 = direction_data(triangle(3).translate((7, -4)), (0, 1))
    assert dd == dd2


def test_slope_coordinates():
    assert slope_reference((0, 1)) == (0, -1)
    assert slope_vector((0, 1), 2) == (1, 2)
    assert slope_of((0, 1), (1, -3)) == -3
    # general direction round trip
    for dvec in ((1, 1), (2, 1), (1, -2), (1, 0)):
        for theta in range(-3, 4):
            assert slope_of(dvec, slope_vector(dvec, theta)) == theta


def test_slope_coordinates_reject_non_primitive_directions():
    for dvec in ((2, 0), (0, 0), (4, 6)):
        with pytest.raises(NotPrimitive):
            slope_reference(dvec)
        with pytest.raises(NotPrimitive):
            slope_vector(dvec, 1)


def _raises_lattice_invariant(fn, *args):
    # no input reaches these checks, so a failing one is a bug, not a
    # domain error
    with pytest.raises(lattice.InvariantViolation) as err:
        fn(*args)
    assert not isinstance(err.value, lattice.TropicoError)


def test_lattice_invariants_raise_typed_errors(monkeypatch):
    # a broken Bezout pair breaks the normal form and the slope reference
    monkeypatch.setattr(lattice, "_xgcd", lambda a, b: (2, 0, 0))
    _raises_lattice_invariant(vertex_singularity, (0, -1), (3, -1))
    monkeypatch.setattr(lattice, "_xgcd", lambda a, b: (1, 0, 0))
    slope_reference.cache_clear()  # (0, 1) may be memoised from a sound call
    _raises_lattice_invariant(slope_reference, (0, 1))
    monkeypatch.undo()
    # a polygon let through as transverse although it is not
    monkeypatch.setattr(lattice, "is_transverse", lambda poly, d: True)
    _raises_lattice_invariant(direction_data, cubic_triangle(), (0, 1))


def test_convex_hull():
    assert convex_hull([(0, 0), (3, 0), (0, 3), (1, 1), (2, 0)]) == triangle(3)
    assert convex_hull([(0, 0), (3.0, 0), (0, Fraction(3))]) == triangle(3)
    # a hull vertex that is not a lattice point is refused, not truncated
    for x in (Fraction(1, 2), 0.9):
        with pytest.raises(DegeneratePolygon, match="vertices must be integral"):
            convex_hull([(x, 0), (3, 0), (0, 3)])
    # while a point inside it need not be one
    assert convex_hull([(0, 0), (3, 0), (0, 3), (0.5, 0.5)]) == triangle(3)
    with pytest.raises(DegeneratePolygon, match="hull of fewer than 3 distinct points"):
        convex_hull([(0, 0), (1, 1), (0, 0)])
    with pytest.raises(DegeneratePolygon, match="need at least 3 non-collinear vertices"):
        convex_hull([(0, 0), (1, 1), (2, 2)])


def test_hull_ring_is_the_polygon_the_general_constructor_keeps():
    # convex_hull keeps the hull ring as it is; the general constructor,
    # handed the same points shuffled into a clockwise or rotated order
    # with a collinear point, normalises them to it
    rng = random.Random(41)
    for _ in range(300):
        pts = {(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(3, 14))}
        try:
            hull = convex_hull(pts)
        except DegeneratePolygon:
            continue
        ring = list(hull.vertices)
        assert ring == lattice.hull_ring(sorted(pts))
        k = rng.randrange(len(ring))
        shuffled = ring[k:] + ring[:k] + [ring[k]]
        a, b = shuffled[0], shuffled[1]
        if (b[0] - a[0]) % 2 == 0 and (b[1] - a[1]) % 2 == 0:
            shuffled.insert(1, ((a[0] + b[0]) // 2, (a[1] + b[1]) // 2))
        assert LatticePolygon(shuffled[::-1]) == hull == LatticePolygon.from_ring(ring)


def _angle_key(v):
    # the half-plane index of post_init_reference's winding count
    if v[1] > 0 or (v[1] == 0 and v[0] > 0):
        return 0
    return 1


def _angle_less(u, v):
    hu, hv = _angle_key(u), _angle_key(v)
    if hu != hv:
        return hu < hv
    return det(u, v) > 0


def post_init_reference(vertices):
    """The stored vertices of LatticePolygon(vertices), by the constructor's
    own turn and winding loop, as it was before it shared from_ring's
    check; raises DegeneratePolygon as the constructor does."""
    pts = []
    for x, y in vertices:
        if x != int(x) or y != int(y):
            raise DegeneratePolygon("vertices must be integral")
        pts.append((int(x), int(y)))
    pts = lattice._strip_collinear(pts)
    if len(pts) < 3:
        raise DegeneratePolygon("need at least 3 non-collinear vertices")
    if lattice._shoelace2(pts) < 0:
        pts.reverse()
    n = len(pts)
    turns = 0
    for i in range(n):
        u = lattice.sub(pts[(i + 1) % n], pts[i])
        v = lattice.sub(pts[(i + 2) % n], pts[(i + 1) % n])
        if det(u, v) <= 0:
            raise DegeneratePolygon("polygon is not strictly convex")
        if not _angle_less(u, v):
            turns += 1
    if turns != 1:
        raise DegeneratePolygon("edge directions wind more than once")
    start = min(range(n), key=lambda i: pts[i])
    return tuple(pts[start:] + pts[:start])


def vertex_lists(rng, n):
    """n random vertex lists, by kind: convex rings as stored, rotated or
    clockwise, and each with a repeated vertex, a collinear run along an
    edge, a backtrack or an overshoot along an edge, a reflex corner, in
    pentagram order, or with a non-integral or an integral-valued Fraction
    or float point; and lists of a few random points."""
    out = []
    while len(out) < n:
        ring = list(random_lattice_polygon(rng, max_coord=6, max_points=9).vertices)
        k = len(ring)
        i = rng.randrange(k)
        p, q = ring[i], ring[(i + 1) % k]
        g = integral_length(p, q)
        step = ((q[0] - p[0]) // g, (q[1] - p[1]) // g)
        on_edge = [(p[0] + j * step[0], p[1] + j * step[1]) for j in range(1, g)]
        inside = (sum(x for x, _ in ring) // k, sum(y for _, y in ring) // k)
        kinds = {
            "stored": ring,
            "rotated": ring[i:] + ring[:i],
            "clockwise": ring[::-1],
            "repeat": ring[:i + 1] + [p] + ring[i + 1:],
            "collinear": ring[:i + 1] + on_edge + ring[i + 1:],
            "backtrack": ring[:i + 1] + [q] + [p] + ring[i + 1:],
            "overshoot": ring[:i + 1] + [lattice.add(q, step), q] + ring[i + 2:],
            "reflex": ring[:i + 1] + [inside] + ring[i + 1:],
            "pentagram": [ring[(j * 2) % k] for j in range(k)],
            "fraction": ring[:i] + [(Fraction(2 * p[0] + 1, 2), p[1])] + ring[i + 1:],
            "integral fraction": ring[:i] + [(Fraction(2 * p[0], 2), float(p[1]))] + ring[i + 1:],
            "random": [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(3, 7))],
        }
        out += kinds.items()
    return out[:n]


def _constructed(make, vertices):
    try:
        return make(vertices)
    except DegeneratePolygon as exc:
        return type(exc)


def test_one_ring_rule_for_both_polygon_constructors():
    # on 2,400 vertex lists the constructor accepts and rejects what its
    # earlier turn and winding loop did, stores the same vertices and
    # rejects with DegeneratePolygon alone; from_ring takes an integer list
    # exactly when the constructor keeps it as it is, and raises
    # InvariantViolation on any other
    rng = random.Random(2024)
    seen = {}
    for kind, vertices in vertex_lists(rng, 2400):
        want = _constructed(post_init_reference, vertices)
        got = _constructed(lambda vs: LatticePolygon(vs).vertices, vertices)
        assert got == want, (kind, vertices)
        kept = want == tuple(vertices)
        outcome = "refused" if want is DegeneratePolygon else "kept" if kept else "normalised"
        seen.setdefault(kind, set()).add(outcome)
        if all(type(c) is int for p in vertices for c in p):
            if kept:
                assert LatticePolygon.from_ring(vertices).vertices == want
            else:
                with pytest.raises(lattice.InvariantViolation):
                    LatticePolygon.from_ring(vertices)
    assert seen["stored"] == {"kept"}
    for kind in ("rotated", "clockwise", "repeat", "collinear", "backtrack", "overshoot"):
        assert "normalised" in seen[kind], kind
    for kind in ("reflex", "pentagram", "fraction", "random"):
        assert "refused" in seen[kind], kind


def test_constructors_refuse_what_they_cannot_build():
    with pytest.raises(NotPrimitive, match="zero vector has no primitive direction"):
        lattice.primitive((0, 0))
    with pytest.raises(lattice.InvariantViolation, match="fewer than 3 vertices"):
        LatticePolygon.from_ring([(0, 0), (1, 0)])
    with pytest.raises(DegeneratePolygon, match="degree must be positive"):
        triangle(0)
    # a < 1, b < 0, r < 0, and b = r = 0
    for r, a, b in ((0, 0, 1), (0, 1, -1), (-1, 1, 1), (0, 1, 0)):
        with pytest.raises(DegeneratePolygon, match="invalid trapezium parameters"):
            trapezium(r, a, b)
