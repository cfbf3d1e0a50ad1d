"""Max-plus tropical polynomials and plane tropical curves, exact throughout.

A tropical polynomial is a finite map from lattice exponents to rational
coefficients, evaluated as max_I {a_I + I . x}.  Its corner locus is a
weighted balanced piecewise-linear curve; the dual picture is the regular
subdivision of the Newton polygon induced by the coefficient lift.  All
coordinates are Fractions: tie regions and collinearity are decided
exactly, never numerically.

The two geometric kernels scale their input to integers and decide every
case by integer sign tests: the upper hull of the lifted support, found by
gift wrapping in O(n * cells) for n terms (_upper_cells), and the crossing
scan that splits the image of a parametrized curve into a plane curve
(_parametrized_to_plane).  The scan reads the curve's cached frame, tests
each pair of the P original pieces at most once, by a sweep over their
boxes' left edges that stops a row at the first box right of its own, and
then replays the split order from the table of crossings it found.
Stable intersection tests a pair of pieces only when their boxes meet,
by the same rule (_piece_box, which the scan writes inline), and keys
each point by its reduced integer triple; Fractions are built at the end.

The hull walk stays in the integers of its scaled lift.  It hulls the
support once (lattice.hull_ring) and reads off that ring whether the
support is collinear, the edge to start from and the sides of the Newton
polygon, across which it never pivots; each pivot collects its cell in
its one scan of the points.  Each cell comes with its integer plane
(nx, ny, D) and its vertex ring, a triangle's read off the sign of one
determinant, any other's hulled by the monotone chain.  The
corner locus takes the support's ring as its Newton polygon and each
cell's as its polygon, after one check (LatticePolygon.from_ring), lists
the ring edges once and reads the owners of each edge, the segments, the
rays and the crossings off that list; it builds two Fractions per vertex
and the segment directions from integer cross terms of the planes.  The
Legendre transform, on the integer lift of -f, reads the vertices off the
rings.  Only the ray circuit becomes a polygon through the general
constructor (_dual_polygon); the delta invariant reads each vertex's dual
cell off its star (_balanced).  Where a straight piece lies on its line is
one rule (_line_span), for reducedness and for parallel pieces that meet.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

from . import lattice
from .lattice import InvariantViolation, LatticePolygon, Record, component_count, component_roots
from .lattice import add, convex_hull, det, dot, perp, scale, sub


class TropicalError(lattice.TropicoError):
    pass


class SegmentSupport(TropicalError):
    """Support does not affinely span the plane."""


class NotClosed(TropicalError):
    pass


class UnsupportedShape(TropicalError):
    """Subdivision tiles other than triangles and parallelograms."""


class NonReduced(TropicalError):
    pass


class NotTrivalent(TropicalError):
    pass


class NonTransverse(TropicalError):
    pass


def _frac_point(p):
    x, y = p
    return (x if type(x) is Fraction else Fraction(x), y if type(y) is Fraction else Fraction(y))


def _lattice_point(p):
    """p as a pair of ints.  As for a LatticePolygon vertex, each coordinate
    must equal its int(): 1.0 is read as 1, while 1.9 and "1" are rejected."""
    x, y = p
    if type(x) is type(y) is int:
        return (x, y)
    if x != int(x) or y != int(y):
        raise TropicalError(f"exponent {p!r} is not a lattice point")
    return (int(x), int(y))


# ---------------------------------------------------------------------------
# polynomials


class TropicalPolynomial(Record):
    """terms: mapping lattice exponent -> rational coefficient (max-plus)."""

    terms: tuple  # sorted tuple of ((i, j), Fraction)

    @staticmethod
    def make(mapping):
        items = tuple(sorted((_lattice_point(e), Fraction(a)) for e, a in dict(mapping).items()))
        if not items:
            raise TropicalError("empty support")
        return TropicalPolynomial(items)

    @property
    def support(self):
        return tuple(e for e, _ in self.terms)

    def __call__(self, p):
        return max(a + e[0] * p[0] + e[1] * p[1] for e, a in self.terms)

    def newton_polygon(self):
        return convex_hull(self.support)

    def spans_plane(self):
        return len(lattice.hull_ring(sorted(set(self.support)))) >= 3


# ---------------------------------------------------------------------------
# plane tropical curves


class Segment(NamedTuple):
    a: int
    b: int
    weight: int
    direction: tuple  # primitive, oriented from a to b


class Ray(NamedTuple):
    base: int
    direction: tuple  # primitive, toward infinity
    weight: int


class PlaneTropicalCurve(Record):
    """Weighted balanced PL curve: vertices at rational points, bounded
    segments between them, rays to infinity.  crossings marks the vertices
    that are planar crossings of two straight pieces (dual cell a
    parallelogram) rather than honest trivalent vertices."""

    vertices: tuple
    segments: tuple
    rays: tuple
    crossings: frozenset
    newton: LatticePolygon

    @staticmethod
    def build(vertices, segments, rays, crossings=(), newton=None):
        """The curve of these pieces, with newton the polygon its ray
        circuit traces: when given, a polygon the rays do not trace (see
        _traces) raises TropicalError, and so does a segment or ray of
        weight below 1 or with a direction that is not primitive."""
        vertices = tuple(_frac_point(v) for v in vertices)
        segments = tuple(s if isinstance(s, Segment) else Segment(*s) for s in segments)
        rays = tuple(r if isinstance(r, Ray) else Ray(*r) for r in rays)
        for piece in segments + rays:
            if piece.weight < 1 or not lattice.is_primitive(piece.direction):
                raise TropicalError(f"{piece} needs a positive weight and a primitive direction")
        star = [(r.direction, r.weight) for r in rays]
        if newton is None:
            newton = _dual_polygon(star)
        elif not _traces(star, newton):
            raise TropicalError("ray circuit does not trace the Newton polygon")
        return PlaneTropicalCurve(vertices, segments, rays, frozenset(crossings), newton)

    @cached_property
    def frame(self):
        """(m, integer vertices): _integral_frame of the vertices, computed
        once; to_plane_curve hands down the frame it found the crossings in."""
        return _integral_frame(self.vertices)

    @cached_property
    def incidence(self):
        """Vertex -> [(tag, outgoing direction, weight)] of the pieces at it:
        segments, then rays, by index (see _incidence); computed once, since
        a curve is immutable."""
        return _incidence(
            [(("s", i), s.a, s.b, s.direction, s.weight) for i, s in enumerate(self.segments)]
            + [(("r", i), r.base, None, r.direction, r.weight) for i, r in enumerate(self.rays)]
        )

    @cached_property
    def chains(self):
        """Maximal collinear chains of pieces through crossings, computed
        once: (piece tags, endpoints) per chain, in the order of its first
        piece, endpoints its two ends that are not crossings (None for
        infinity).  Opposite pieces at a crossing are paired greedily and
        joined with the union-find."""
        links = []
        incidence = self.incidence
        for v in self.crossings:
            inc = incidence.get(v, ())
            if len(inc) != 4:
                raise UnsupportedShape(f"crossing vertex {v} is not 4-valent")
            used = set()
            for (t1, u1, _), (t2, u2, _) in itertools.combinations(inc, 2):
                if t1 not in used and t2 not in used and u1 == scale(u2, -1):
                    links.append((t1, t2))
                    used.update((t1, t2))
            if len(used) != 4:
                raise UnsupportedShape(f"crossing vertex {v} does not pair into two lines")
        ends = {("s", i): (s.a, s.b) for i, s in enumerate(self.segments)}
        ends.update((("r", i), (r.base, None)) for i, r in enumerate(self.rays))
        chains = {}
        for tag, root in component_roots(ends, links).items():
            chain, endpoints = chains.setdefault(root, ([], []))
            chain.append(tag)
            endpoints += [v for v in ends[tag] if v not in self.crossings]
        return list(chains.values())

    def pieces(self, points=None):
        """All straight pieces as (p, q_or_None, direction, weight, tag), with
        p and q read in points, by default the vertices."""
        points = self.vertices if points is None else points
        out = []
        for i, s in enumerate(self.segments):
            out.append((points[s.a], points[s.b], s.direction, s.weight, ("s", i)))
        for i, r in enumerate(self.rays):
            out.append((points[r.base], None, r.direction, r.weight, ("r", i)))
        return out

    def translate(self, v):
        v = _frac_point(v)
        return PlaneTropicalCurve(
            tuple((p[0] + v[0], p[1] + v[1]) for p in self.vertices),
            self.segments,
            self.rays,
            self.crossings,
            self.newton,
        )


def _incidence(pieces):
    """Vertex -> [(tag, outgoing primitive direction, weight)] of the pieces
    at it, in the order of pieces, given as (tag, a, b, direction, weight)
    with the direction from a to b and b None for a ray from a.  Vertices
    without pieces are absent."""
    out = {}
    for tag, a, b, u, w in pieces:
        out.setdefault(a, []).append((tag, u, w))
        if b is not None:
            out.setdefault(b, []).append((tag, scale(u, -1), w))
    return out


def _balanced(star):
    """The vectors w * u of a vertex star [(tag, u, w)], in its order, or
    None when they do not sum to zero: the balance test of check_balancing,
    ParametrizedCurve.star_census and delta_invariant."""
    vectors = []
    x = y = 0
    for _, (a, b), w in star:
        a, b = a * w, b * w
        x, y = x + a, y + b
        vectors.append((a, b))
    return None if x or y else vectors


def check_balancing(curve):
    """Sum of weight * primitive outgoing direction vanishes at every vertex
    of a plane or parametrized curve."""
    return all(_balanced(star) is not None for star in curve.incidence.values())


def _dual_polygon(star):
    """The Newton polygon traced by the rays (u, w) of a curve: the vectors
    w * u sorted by angle, each turned by +pi/2, have partial sums from
    (0, 0) at its vertices (LatticePolygon merges the collinear ones that
    parallel rays leave).  A circuit that does not close raises NotClosed;
    so does a curve without rays."""
    if not star:
        raise NotClosed("curve has no rays")
    total = (0, 0)
    pts = [total]
    for wu in lattice.sort_by_angle([scale(u, w) for u, w in star]):
        total = add(total, perp(wu))
        pts.append(total)
    if total != (0, 0):
        raise NotClosed(f"weighted ray circuit does not close: drift {total}")
    return LatticePolygon(pts[:-1])


def _traces(star, polygon):
    """Whether the rays (u, w) of star trace polygon as their circuit,
    decided without building the circuit (see _dual_polygon).

    Each edge (x, y) of the counterclockwise polygon gives its outward
    primitive normal (y/g, -x/g) its lattice length g = gcd(x, y); the rays
    must have these directions, positive weights, and per direction these
    summed weights.  Equal tables close the circuit and give it the edge
    vectors of polygon.  A star that fails may still close onto polygon,
    with a weight 0 or -1 or a direction that is not primitive, so a
    caller that names the failure asks _dual_polygon.
    """
    census = {}
    for u, w in star:
        if w < 1:
            return False
        census[u] = census.get(u, 0) + w
    return frozenset(census.items()) == _normal_lengths(polygon)


@lru_cache(maxsize=64)
def _normal_lengths(polygon):
    """The pairs (outward primitive normal, lattice length) of the edges of
    polygon, as a frozenset: the table of _traces, since no two edges of a
    polygon share a normal.  Memoised, since the rays of every curve of a
    spec are tested against its one polygon."""
    pairs = []
    for x, y in polygon.edge_vectors():
        g = math.gcd(x, y)
        pairs.append(((y // g, -x // g), g))
    return frozenset(pairs)


def newton_polygon_of(curve):
    """Newton polygon reconstructed from the weighted ray circuit.

    Edges are traced by rotating each ray direction by +pi/2, in circular
    order.  The circuit determines the polygon up to translation; the
    result is anchored at the curve's stored polygon when present.
    """
    poly = _dual_polygon([(r.direction, r.weight) for r in curve.rays])
    anchor = curve.newton.vertices[0] if curve.newton is not None else poly.vertices[0]
    return poly.translate(sub(anchor, poly.vertices[0]))


# ---------------------------------------------------------------------------
# regular subdivision and the corner locus


class DualSubdivision(Record):
    """Cells of the regular subdivision of the Newton polygon, with the
    incidences: curve vertex i <-> cells[i]; segment j <-> segment_dual[j]
    (an interior edge); ray k <-> ray_dual[k] (a boundary edge)."""

    newton: LatticePolygon
    cells: tuple
    segment_dual: tuple
    ray_dual: tuple

    def check_tiling(self):
        return sum(c.double_area() for c in self.cells) == self.newton.double_area()


def _upper_cells(poly_terms):
    """Maximal equality sets of upper supporting planes of the lifted points.

    Returns (hull, cells): hull the lattice.hull_ring of the support, and
    cells {frozenset(points on the plane): (nx, ny, D, ring)} with the
    plane's gradient (nx / D, ny / D), D > 0, and ring the counterclockwise
    vertices of the cell's convex hull from its least point, one entry per
    2-face of the upper hull of {(I, a_I)}; cells is {} when the support is
    collinear, hull then of fewer than 3 points.  Everything is an integer:
    no Fraction and no polygon is built here; a caller builds the Newton
    polygon or a cell as a LatticePolygon from its ring.

    Gift wrapping over cell edges: start from an upper-hull edge on the
    boundary of the Newton polygon, found on the first edge of hull, and
    from every directed edge (p, q) with an unexplored cell on its left,
    pivot the plane through the lifted p and q down onto that side; the
    pivot's one scan returns the next cell (_pivot).  Each edge of its ring
    is then queued with the cell on the other side, unless the edge lies on
    a side of hull, which has nothing beyond it: the sides are keyed by
    their primitive direction u and offset det(u, p) (_side).  So there is
    one pivot per cell and none on the boundary.  Lifts are scaled to
    integers first, so every test is an integer comparison.  A pivot is
    O(n), so the hull costs O(n * cells).
    """
    lift = dict(poly_terms)
    pts = sorted(lift)
    hull = lattice.hull_ring(pts)
    if len(hull) < 3:
        return hull, {}
    scale_ = math.lcm(*(a.denominator for a in lift.values()))
    h = {p: a.numerator * (scale_ // a.denominator) for p, a in lift.items()}
    lifted = [(x, y, h[x, y]) for x, y in pts]
    sides = {_side(a, b) for a, b in zip(hull, hull[1:] + hull[:1])}
    # start edge: from the least point v0, a polygon vertex, along the
    # polygon edge e to the next vertex of the hull ring, to the point of
    # that edge with the largest lift slope, which lies on the upper hull
    (x0, y0), (x1, y1) = hull[:2]
    ex, ey = x1 - x0, y1 - y0
    h0 = h[x0, y0]
    q, qh, qt = (x1, y1), h[x1, y1] - h0, ex * ex + ey * ey
    for x, y, hr in lifted:
        rx, ry = x - x0, y - y0
        if ex * ry == ey * rx and (rx or ry):
            t = ex * rx + ey * ry
            if (hr - h0) * qt > qh * t:
                q, qh, qt = (x, y), hr - h0, t
    cells = {}
    done = set()  # directed cell edges with their cell on the left
    stack = [((x0, y0), q)]
    while stack:
        p, q = stack.pop()
        if (p, q) in done:
            continue
        eq, (nx, ny, den) = _pivot(lifted, h, p, q)  # eq is sorted, as pts is
        if len(eq) == 3:  # a triangle: its ring is eq, or eq turned
            ring = eq if det(sub(eq[1], eq[0]), sub(eq[2], eq[0])) > 0 else [eq[0], eq[2], eq[1]]
        else:
            ring = lattice.hull_ring(eq)
        cells[frozenset(eq)] = (nx, ny, den * scale_, ring)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            done.add((a, b))
            if (b, a) not in done and _side(a, b) not in sides:
                stack.append((b, a))
    return hull, cells


def _side(a, b):
    """The key (ux, uy, det(u, a)) of the line through a and b, u the
    primitive direction from a to b.  A cell edge on a side of the Newton
    polygon runs the way the side does, both counterclockwise, so the two
    share this key."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    g = math.gcd(dx, dy)
    ux, uy = dx // g, dy // g
    return ux, uy, ux * a[1] - uy * a[0]


def _pivot(lifted, h, p, q):
    """The cell on the left of the directed edge p -> q, in one scan of the
    points: (its points in sorted order, (nx, ny, den)), the points on the
    upper supporting plane through the lifted p and q that is tilted onto
    the left of p -> q, whose gradient is (nx, ny) / den in lift units.
    lifted lists the sorted points as triples (x, y, h(x, y)).

    The planes through the lifted p, q are A(x) + s * D(x), with A the
    lift interpolated along pq and D(x) = det(q - p, x - p); the plane must
    pass over every r with D(r) > 0, so s = max (h(r) - A(r)) / D(r).
    Scaled by |q - p|^2 the ratio is num(r) / D(r) with integer num(r).
    The scan keeps the points left of pq that tie the largest ratio so far,
    and the points r on the line pq with num(r) = 0, whose lift lies on
    the lifted line and so on the plane, between p and q or not.  No point
    right of pq is on the plane.  At the start edge none lies there: that
    side is outside the Newton polygon.  Otherwise that side is the cell
    already found, whose plane A + s' * D passes over every lifted point.
    So s' >= s, and s' > s since the two cells differ; right of pq, where
    D < 0, the new plane lies strictly above the old one.

    The walk pivots only on an edge with a cell on its left; an edge with
    no point there is a broken invariant.
    """
    px, py = p
    ex, ey = q[0] - px, q[1] - py
    ee = ex * ex + ey * ey
    hp = h[p]
    dh = h[q] - hp
    best_n, best_d = -1, 0  # the ratio -1 / 0 stands for minus infinity
    left, on = [], []
    for x, y, hr in lifted:
        rx, ry = x - px, y - py
        dd = ex * ry - ey * rx
        if dd > 0:
            num = (hr - hp) * ee - dh * (ex * rx + ey * ry)
            cmp = num * best_d - best_n * dd
            if cmp > 0:
                best_n, best_d, left = num, dd, [(x, y)]
            elif cmp == 0:
                left.append((x, y))
        elif dd == 0 and (hr - hp) * ee == dh * (ex * rx + ey * ry):
            on.append((x, y))
    if not left:
        raise InvariantViolation(f"hull walk pivots on {p}-{q}, which has no point on its left")
    nx, ny = dh * best_d * ex - best_n * ey, dh * best_d * ey + best_n * ex
    return sorted(on + left), (nx, ny, ee * best_d)


def corner_locus(poly):
    """Corner locus of a tropical polynomial with its dual subdivision.

    The subdivision is the projection of the upper convex hull of the
    lifted support {(I, a_I)}, and the curve is read off its cells: one
    vertex per 2-cell, at minus the gradient of the cell's plane, where
    that cell's terms are simultaneously maximal; one bounded edge per
    cell edge shared by two cells; one ray per cell edge of no other cell,
    along the edge's primitive outward normal.  Weights are the integral
    lengths of the dual edges.  A crossing is a cell of four vertices whose
    opposite edges are opposite vectors.

    The Newton polygon is the hull walk's ring of the support, and each
    cell is taken as it comes from the walk, each ring checked once
    (LatticePolygon.from_ring).  The ring edges are listed once: the owners
    of each edge, the segments, the rays and the crossings are all read off
    that one list.
    """
    hull, cells = _upper_cells(poly.terms)
    if not cells:
        raise SegmentSupport("support of the polynomial is collinear")
    newton = LatticePolygon.from_ring(hull)
    planes = [cells[eq] for eq in sorted(cells, key=sorted)]
    cell_polys = [LatticePolygon.from_ring(ring) for *_, ring in planes]
    vertices = [(Fraction(-nx, d), Fraction(-ny, d)) for nx, ny, d, _ in planes]

    edges = []  # (cell, p, q, edge as its sorted end points) per ring edge
    owners = {}  # edge as its sorted end points -> cells that have it
    crossings = set()
    for idx, (*_, ring) in enumerate(planes):
        for p, q in zip(ring, ring[1:] + ring[:1]):
            key = (p, q) if p < q else (q, p)
            owners.setdefault(key, []).append(idx)
            edges.append((idx, p, q, key))
        if len(ring) == 4 and sub(ring[1], ring[0]) == sub(ring[2], ring[3]):
            crossings.add(idx)

    segments, segment_dual = [], []
    for (i, j), (p, q) in sorted((cs, key) for key, cs in owners.items() if len(cs) == 2):
        # vertex j - vertex i is w / (D_i * D_j), so the segment runs along w
        nxi, nyi, di, _ = planes[i]
        nxj, nyj, dj, _ = planes[j]
        w = (nxi * dj - nxj * di, nyi * dj - nyj * di)
        if w == (0, 0) or dot(w, sub(q, p)) != 0:
            raise InvariantViolation(f"curve edge {i}-{j} is not orthogonal to its dual {p}-{q}")
        segments.append(Segment(i, j, lattice.integral_length(p, q), lattice.primitive(w)))
        segment_dual.append((p, q))

    rays, ray_dual = [], []
    for idx, p, q, key in edges:
        if len(owners[key]) == 1:
            direction = lattice.primitive((q[1] - p[1], p[0] - q[0]))
            rays.append(Ray(idx, direction, lattice.integral_length(p, q)))
            ray_dual.append((p, q))

    curve = PlaneTropicalCurve(tuple(vertices), tuple(segments), tuple(rays), frozenset(crossings), newton)
    subdivision = DualSubdivision(newton, tuple(cell_polys), tuple(segment_dual), tuple(ray_dual))
    if not subdivision.check_tiling():
        raise InvariantViolation("cells do not tile the Newton polygon")
    return curve, subdivision


# ---------------------------------------------------------------------------
# Legendre-Fenchel transform


class AffinePiece(Record):
    """One linearity domain of a piecewise-affine convex function: the map
    p -> gradient . p + offset, which the function equals where this piece
    is the largest."""

    gradient: tuple
    offset: Fraction

    def value(self, p):
        return self.gradient[0] * p[0] + self.gradient[1] * p[1] + self.offset


class LegendreTransform(Record):
    """f_vee(p) = max_x {p . x - f(x)} as the maximum of its affine pieces,
    one per active gradient."""

    pieces: tuple

    def __call__(self, p):
        return max(piece.value(p) for piece in self.pieces)


def legendre_transform(f):
    """Legendre-Fenchel transform of a finite rational function on lattice points.

    The active gradients are the vertices of the lower convex hull of the
    lifted graph {(x, f(x))}; each yields the affine piece p . x - f(x) on
    its (full-dimensional) argmax region.  A Fraction value is taken as it is.
    """
    f = {_lattice_point(p): v if type(v) is Fraction else Fraction(v) for p, v in dict(f).items()}
    if not f:
        raise TropicalError("empty domain")
    # the cells of the lower hull of the lifted graph of f are the upper
    # cells of -f, lifted here to integers; {} when dom f is collinear
    m = math.lcm(*(v.denominator for v in f.values()))
    _, cells = _upper_cells(tuple((p, -v.numerator * (m // v.denominator)) for p, v in f.items()))
    return LegendreTransform(tuple(AffinePiece(x, -f[x]) for x in _lower_hull_vertices(f, cells)))


def _lower_hull_vertices(f, cells):
    pts = sorted(f)
    if len(pts) == 1:
        return pts
    if cells:
        return sorted({v for *_, ring in cells.values() for v in ring})
    # collinear domain: the lower chain of the points (<u, p>, f(p))
    u = lattice.primitive(sub(pts[-1], pts[0]))
    at = {dot(u, p): p for p in pts}
    return [at[t] for t, _ in lattice.monotone_chain(sorted((t, f[p]) for t, p in at.items()))]


# ---------------------------------------------------------------------------
# chains, delta invariant, genus


def _line_span(p, q, u):
    """(c, lo, hi): the canonical direction c of the line of the piece from
    p to q, or of the ray from p along u when q is None, which is u or -u,
    whichever has c[0] > 0 or c[0] == 0 < c[1]; and the span [lo, hi] of
    <c, .> over the piece, a ray's open end -inf or inf."""
    c = u if u[0] > 0 or (u[0] == 0 and u[1] > 0) else (-u[0], -u[1])
    t = c[0] * p[0] + c[1] * p[1]
    if q is not None:
        s = c[0] * q[0] + c[1] * q[1]
        return (c, t, s) if t < s else (c, s, t)
    return (c, t, math.inf) if u == c else (c, -math.inf, t)


def _check_reduced(curve):
    """Conservative reducedness test: no two pieces supported on one line
    with a positive-length common stretch, read in the curve's integer
    frame.  Each line, keyed by (c, det(c, p)) of _line_span, sorts its
    spans once by their low ends: a span that starts below the highest end
    reached so far overlaps the piece that reached it."""
    by_line = {}
    for p, q, u, _, tag in curve.pieces(curve.frame[1]):
        c, lo, hi = _line_span(p, q, u)
        by_line.setdefault((c, det(c, p)), []).append((lo, hi, tag))
    for spans in by_line.values():
        spans.sort()
        reach, last = -math.inf, None
        for lo, hi, tag in spans:
            if lo < reach:
                raise NonReduced(f"pieces {last} and {tag} overlap on a common line")
            if hi > reach:
                reach, last = hi, tag


def delta_invariant(curve):
    """Tropical delta invariant, in integers, of a reduced curve whose dual
    cells are triangles and parallelograms: w - 1 per finite chain, plus
    each vertex's cell read off the vectors w * u of its star (_balanced),
    pairwise distinct once _check_reduced passes, as weights are positive
    and directions primitive.  Each vertex is checked for balance,
    degeneracy and shape in turn.  A crossing must be two opposite pairs of
    equal vectors and adds |det| of two non-opposite ones; a trivalent
    vertex adds its triangle's interior points I, 2I = |det(w1 u1, w2 u2)|
    - (w1 + w2 + w3) + 2 by Pick.
    """
    _check_reduced(curve)
    delta = 0
    for v in range(len(curve.vertices)):
        star = curve.incidence.get(v, ())
        vectors = _balanced(star)
        if vectors is None:
            raise NotClosed(f"vertex {v} is not balanced")
        if len(vectors) < 3:
            raise lattice.DegeneratePolygon("need at least 3 non-collinear vertices")
        if v in curve.crossings:
            if len(vectors) != 4 or any((-x, -y) not in vectors for x, y in vectors):
                raise UnsupportedShape(f"crossing {v} has a non-parallelogram cell")
            a, b, c, _ = vectors
            delta += abs(det(a, b if b != (-a[0], -a[1]) else c))
        else:
            if len(vectors) != 3:
                raise UnsupportedShape(f"vertex {v} has a non-triangle cell")
            delta += (abs(det(vectors[0], vectors[1])) - sum(w for _, _, w in star) + 2) // 2
    for chain, endpoints in curve.chains:
        if all(e is not None for e in endpoints):
            weights = {curve.segments[i].weight for _, i in chain}  # a ray has an end at infinity
            if len(weights) != 1:
                raise InvariantViolation(f"chain {chain} changes weight: {sorted(weights)}")
            delta += weights.pop() - 1
    return delta


def abstract_genus(curve):
    """Genus 1 - t + a of the separated curve: t trivalent vertices, a
    finite segments.  Requires the separated curve to be connected and to
    contain no line through two ends at infinity."""
    real = [v for v in range(len(curve.vertices)) if v not in curve.crossings]
    t = len(real)
    a = 0
    links = []
    for chain, endpoints in curve.chains:
        if all(e is None for e in endpoints):
            raise NonReduced("curve contains a full line through crossings")
        if all(e is not None for e in endpoints):
            a += 1
            links.append(endpoints)
    if component_count(real, links) != 1:
        raise NonReduced("separated curve is disconnected; genus undefined")
    return 1 - t + a


def geometric_genus(curve):
    """p_a(newton) - delta; cross-checked against the separated-curve count."""
    g = curve.newton.interior_points() - delta_invariant(curve)
    ga = abstract_genus(curve)
    if g != ga:
        raise TropicalError(
            f"genus mismatch: p_a - delta = {g} but separated curve gives {ga}"
        )
    return g


# ---------------------------------------------------------------------------
# parametrized curves


class PEdge(NamedTuple):
    a: int
    b: int  # -1 for an end at infinity
    weight: int
    direction: tuple  # primitive, from a toward b / toward infinity


class ParametrizedCurve(Record):
    """Abstract tropical curve with an affine-integral map to the plane.

    positions[i] is the image of source vertex i; edges carry stretching
    factors (weights) and primitive image directions.  Edge lengths are the
    lattice lengths of the images (infinite for rays); the genus is the
    first Betti number of the source graph.
    """

    positions: tuple
    edges: tuple

    @staticmethod
    def build(positions, edges):
        return ParametrizedCurve(
            tuple(_frac_point(p) for p in positions),
            tuple(PEdge(*e) for e in edges),
        )

    @cached_property
    def frame(self):
        """(m, integer positions): _integral_frame of the positions, computed
        once; the verifier's point test and to_plane_curve read it."""
        return _integral_frame(self.positions)

    @cached_property
    def incidence(self):
        """Vertex -> [(edge index, outgoing direction, weight)] of the edges
        at it, by index (see _incidence); computed once, since a curve is
        immutable."""
        return _incidence(
            (i, e.a, e.b if e.b >= 0 else None, e.direction, e.weight)
            for i, e in enumerate(self.edges)
        )

    @cached_property
    def star_census(self):
        """(balanced, mu, not_trivalent) from one walk over the stars of
        incidence at the source vertices: whether each balances, the
        product over trivalent ones of |det(w u, w' u')|, and the
        NotTrivalent message of the first that is neither 1- nor 3-valent,
        or None; computed once, since a curve is immutable."""
        balanced, mu, not_trivalent = True, 1, None
        incidence = self.incidence
        for v in range(len(self.positions)):
            star = incidence.get(v, ())
            balanced = balanced and _balanced(star) is not None
            if len(star) == 3:
                (_, u1, w1), (_, u2, w2) = star[0], star[1]
                mu *= abs(w1 * w2 * det(u1, u2))
            elif len(star) != 1 and not_trivalent is None:
                not_trivalent = f"source vertex {v} has valence {len(star)}"
        return balanced, mu, not_trivalent

    def to_plane_curve(self, newton=None):
        """Image as a plane tropical curve; planar crossings become marked
        4-valent vertices, splitting the straight pieces that pass through.
        A newton polygon is taken as given, unchecked against the rays;
        without one, the rays' circuit is built (_dual_polygon)."""
        return _parametrized_to_plane(self, newton)


def tropical_multiplicity(pc):
    """Product over trivalent source vertices of |det(w u, w' u')|, read
    off pc.star_census; raises NotTrivalent for a vertex of another valence
    but 1."""
    _, mu, not_trivalent = pc.star_census
    if not_trivalent:
        raise NotTrivalent(not_trivalent)
    return mu


def _integral_frame(points):
    """(m, integer points): every coordinate times m, the lcm of the
    denominators, so that the pieces on these points meet exactly where
    the original pieces meet, scaled by m.  A curve's frame is cached
    (ParametrizedCurve.frame, PlaneTropicalCurve.frame), as are a point
    configuration's (PointConfig.point_frame); lists needed in one frame
    join their frames (_joint_frame) rather than being framed again."""
    m = math.lcm(*(c.denominator for p in points for c in p))
    return m, [(p[0].numerator * (m // p[0].denominator),
                p[1].numerator * (m // p[1].denominator)) for p in points]


def _joint_frame(*frames):
    """_integral_frame of the concatenated point lists, from their frames:
    m is the lcm of theirs, and each list's integers are scaled to it."""
    m = math.lcm(*(k for k, _ in frames))
    ints = []
    for k, part in frames:
        ints += part if k == m else [(x * (m // k), y * (m // k)) for x, y in part]
    return m, ints


def _intersect_pieces(p1, q1, u1, p2, q2, u2):
    """Intersection of two straight pieces (segments or rays) with integer
    end points (see _integral_frame); q is None for a ray.

    Returns None (disjoint), or ((x, y, den), at_end) for a single common
    point (x / den, y / den) in the same coordinates, den > 0, at_end
    marking contact at an endpoint of either piece.  Positive-length
    overlap raises NonTransverse.  Everything is integer arithmetic: the
    caller builds Fractions for the points it keeps.
    """
    rx, ry = p2[0] - p1[0], p2[1] - p1[1]
    d = det(u1, u2)
    if d == 0:
        if u1[0] * ry - u1[1] * rx != 0:
            return None
        # on one line: the common span of the two, touching at lo = hi
        c, lo1, hi1 = _line_span(p1, q1, u1)
        _, lo2, hi2 = _line_span(p2, q2, u2)
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return None
        if lo < hi:
            raise NonTransverse("pieces overlap on a common supporting line")
        n2 = c[0] ** 2 + c[1] ** 2
        t0 = c[0] * p1[0] + c[1] * p1[1]
        return (p1[0] * n2 + (lo - t0) * c[0], p1[1] * n2 + (lo - t0) * c[1], n2), True
    # p1 + s u1 = p2 + t u2 with s = sn / d and t = tn / d, d > 0
    sn = rx * u2[1] - ry * u2[0]
    tn = rx * u1[1] - ry * u1[0]
    if d < 0:
        sn, tn, d = -sn, -tn, -d
    if sn < 0 or tn < 0:
        return None
    at_end = sn == 0 or tn == 0
    if q1 is not None:
        # q1 = p1 + (smax / |u1|^2) u1: compare s |u1|^2 with smax
        sval, smax = sn * dot(u1, u1), d * dot(u1, sub(q1, p1))
        if sval > smax:
            return None
        at_end = at_end or sval == smax
    if q2 is not None:
        tval, tmax = tn * dot(u2, u2), d * dot(u2, sub(q2, p2))
        if tval > tmax:
            return None
        at_end = at_end or tval == tmax
    return (p1[0] * d + sn * u1[0], p1[1] * d + sn * u1[1], d), at_end


def _piece_box(p, q, u):
    """The box (x0, x1, y0, y1) of the piece from p to q, or of the ray from
    p along u when q is None, unbounded where the ray runs; two pieces whose
    boxes are disjoint, x1 < x0' or x0 > x1' or likewise in y, cannot meet.
    _parametrized_to_plane writes the same boxes inline, since a call per
    piece measurably slowed it."""
    px, py = p
    if q is None:
        return (
            -math.inf if u[0] < 0 else px, math.inf if u[0] > 0 else px,
            -math.inf if u[1] < 0 else py, math.inf if u[1] > 0 else py,
        )
    qx, qy = q
    return min(px, qx), max(px, qx), min(py, qy), max(py, qy)


def stable_intersection(c1, c2):
    """Transverse intersection points of two curves with multiplicities
    w1 * w2 * |det(u1, u2)|.  Degenerate contact (overlap, or a crossing at
    a vertex) raises NonTransverse; see stable_intersection_generic.  A
    pair of pieces goes to _intersect_pieces only when their boxes
    (_piece_box) meet.  A point is keyed by its reduced integer triple (x,
    y, den) and sorted over the common denominator; Fractions are built
    for the points returned."""
    m, ints = _joint_frame(c1.frame, c2.frame)
    points = {}
    pieces2 = [(p, q, u, w, _piece_box(p, q, u)) for p, q, u, w, _ in c2.pieces(ints[len(c1.vertices):])]
    for p1, q1, u1, w1, _ in c1.pieces(ints):
        x0, x1, y0, y1 = _piece_box(p1, q1, u1)
        for p2, q2, u2, w2, (a0, a1, b0, b1) in pieces2:
            if a1 < x0 or a0 > x1 or b1 < y0 or b0 > y1:
                continue
            hit = _intersect_pieces(p1, q1, u1, p2, q2, u2)
            if hit is None:
                continue
            (x, y, den), at_end = hit
            if at_end:
                point = (Fraction(x, den * m), Fraction(y, den * m))
                raise NonTransverse(f"intersection at a vertex: {point}")
            g = math.gcd(x, y, den)
            key = (x // g, y // g, den // g)
            points[key] = points.get(key, 0) + w1 * w2 * abs(det(u1, u2))
    lcd = math.lcm(*(den for _, _, den in points))
    order = sorted(points, key=lambda k: (k[0] * (lcd // k[2]), k[1] * (lcd // k[2])))
    return [((Fraction(x, den * m), Fraction(y, den * m)), points[x, y, den]) for x, y, den in order]


INTERSECTION_TRIES = 32


def stable_intersection_generic(c1, c2, seed=0):
    """Retry helper: intersect c1 with c2 itself, then with c2 translated by
    small generic rational vectors, until the intersection is transverse,
    at most INTERSECTION_TRIES tries in all.  Returns (points, translation),
    the translation (0, 0) when c2 itself was transverse."""
    import random

    rng = random.Random(seed)
    shift, moved = (Fraction(0), Fraction(0)), c2
    for attempt in range(INTERSECTION_TRIES):
        try:
            return stable_intersection(c1, moved), shift
        except NonTransverse:
            shift = (
                Fraction(rng.randrange(-999_983, 999_983), 1_000_003 * (attempt + 1)),
                Fraction(rng.randrange(-999_983, 999_983), 1_000_003 * (attempt + 1) + 1),
            )
            moved = c2.translate(shift)
    raise NonTransverse("no generic translation found")


def _parametrized_to_plane(pc, newton=None):
    """Split the straight pieces of pc at their interior crossings.

    The splits come in the order of a row scan over the current pieces,
    segments first, then rays, restarted from the first pair after each
    split: the first pair with an interior crossing is split, and the new
    finite pieces are appended to the segments, in front of the rays.

    The scan reads the frame of the positions, pc.frame (see
    _integral_frame), and each pair of original pieces goes through
    _intersect_pieces at most once; the interior crossings are recorded
    with their rank along both pieces.  A pair is skipped when the pieces'
    integer boxes (unbounded along a ray's direction) are disjoint, or when
    the pieces are not parallel and share an end vertex, where alone they
    can meet.  The pairs come from a sweep over the pieces in the order of
    their boxes' left edges, whose row for a piece stops at the first box
    that starts right of its own; it finds the pairs of meeting boxes, so
    the crossings, which _intersect_pieces gives alike in either order,
    and the replay are those of a test of every pair.  Parallel pairs are
    tested, so an overlap raises NonTransverse.  The scan is then replayed on the
    table: a current piece is a stretch of its original between two ranks,
    and two current pieces cross exactly when their originals' crossing
    lies strictly inside both.  Pairs before the split pair cannot cross,
    since splitting only shortens pieces, so the replay resumes at row
    min(a, number of segments before the split), where a is the split
    pair's first row.  With P pieces that is at most O(P^2) box checks,
    integer tests for the pairs that pass, and per row of the replay one look at
    the crossings of its original.  Each Segment and Ray, and the curve,
    is made once at the end, not through PlaneTropicalCurve.build, and the
    curve is handed its frame: pc.frame joined with that of the crossings.
    """
    vertices = [_frac_point(p) for p in pc.positions]
    m, ints = pc.frame
    segs = []
    rays = []
    for e in pc.edges:
        if e.b >= 0:
            segs.append([e.a, e.b, e.weight, e.direction])
        else:
            rays.append([e.a, e.direction, e.weight])

    # original piece k as (x0, x1, y0, y1, k, p, q, u, end vertices), with
    # [x0, x1] x [y0, y1] its box, in the order of the boxes' left edges:
    # every box after k's starts at or right of k's left edge, so k's row
    # of the sweep ends at the first one that starts right of k's box
    swept = []
    for k, (a, b, w, u) in enumerate(segs):
        (px, py), (qx, qy) = p, q = ints[a], ints[b]
        swept.append((min(px, qx), max(px, qx), min(py, qy), max(py, qy), k, p, q, u, (a, b)))
    for k, (a, u, w) in enumerate(rays, len(segs)):
        px, py = p = ints[a]
        swept.append((
            -math.inf if u[0] < 0 else px, math.inf if u[0] > 0 else px,
            -math.inf if u[1] < 0 else py, math.inf if u[1] > 0 else py,
            k, p, None, u, (a, a),
        ))
    swept.sort()  # the distinct k decides every tie
    hits = [[] for _ in swept]  # k -> [(t, den, k2, c)]: crossing c with k2, at t / den along k
    points = []  # crossing c -> (x, y, den): the point (x / den, y / den) of the frame
    for i, (_, x1, y0, y1, k, p1, q1, u1, ends) in enumerate(swept):
        for a0, _, b0, b1, k2, p2, q2, u2, (a, b) in swept[i + 1:]:
            if a0 > x1:
                break
            if b1 < y0 or b0 > y1:
                continue
            if (a in ends or b in ends) and det(u1, u2) != 0:
                continue
            hit = _intersect_pieces(p1, q1, u1, p2, q2, u2)
            if hit is None or hit[1]:
                continue
            (x, y, den), _ = hit
            hits[k].append((u1[0] * x + u1[1] * y, den, k2, len(points)))
            hits[k2].append((u2[0] * x + u2[1] * y, den, k, len(points)))
            points.append((x, y, den))
    # rank[k, c]: the number of crossings on k before crossing c, so that the
    # crossings at one point share a rank; every rank on k is below len(hits[k])
    rank = {}
    for k, row in enumerate(hits):
        for t, den, _, c in row:
            rank[k, c] = sum(s * den < t * d for s, d, _, _ in row)

    # current piece tag -> (original, lo, hi): the stretch of the original
    # strictly between its ranks lo and hi
    tags = [("s", i) for i in range(len(segs))] + [("r", i) for i in range(len(rays))]
    span = {tag: (k, -1, len(hits[k])) for k, tag in enumerate(tags)}
    subs = [[tag] for tag in tags]  # original -> tags of its current pieces

    def split(tag, c, vi):
        k, lo, hi = span[tag]
        _split_piece(segs, rays, tag, vi)
        new = ("s", len(segs) - 1)
        subs[k].append(new)
        if tag[0] == "s":
            span[tag], span[new] = (k, lo, rank[k, c]), (k, rank[k, c], hi)
        else:
            span[new], span[tag] = (k, lo, rank[k, c]), (k, rank[k, c], hi)

    crossings = set()
    row = 0
    while row < len(segs) + len(rays):
        t1 = ("s", row) if row < len(segs) else ("r", row - len(segs))
        k, lo, hi = span[t1]
        first = None
        for _, _, k2, c in hits[k]:
            if not lo < rank[k, c] < hi:
                continue
            for t2 in subs[k2]:
                _, lo2, hi2 = span[t2]
                if lo2 < rank[k2, c] < hi2:
                    j = t2[1] if t2[0] == "s" else len(segs) + t2[1]
                    if j > row and (first is None or j < first[0]):
                        first = (j, t2, c)
                    break
        if first is None:
            row += 1
            continue
        _, t2, c = first
        x, y, den = points[c]
        vertices.append((Fraction(x, den * m), Fraction(y, den * m)))
        vi = len(vertices) - 1
        crossings.add(vi)
        row = min(row, len(segs))
        split(t1, c, vi)
        split(t2, c, vi)
    rays = tuple(Ray(*r) for r in rays)
    if newton is None:
        newton = _dual_polygon([(r.direction, r.weight) for r in rays])
    segs = tuple(Segment(*s) for s in segs)
    curve = PlaneTropicalCurve(tuple(vertices), segs, rays, frozenset(crossings), newton)
    # the frame the crossings were found in, joined with that of the
    # crossings: _integral_frame(curve.vertices), without framing it again
    n = len(pc.positions)
    object.__setattr__(curve, "frame", _joint_frame((m, ints), _integral_frame(vertices[n:])))
    return curve


def _split_piece(segs, rays, tag, vi):
    """Split a piece at the new vertex vi: a segment becomes two, a ray
    becomes a segment plus a ray from vi."""
    kind, i = tag
    if kind == "s":
        a, b, w, u = segs[i]
        segs[i] = [a, vi, w, u]
        segs.append([vi, b, w, u])
    else:
        a, u, w = rays[i]
        segs.append([a, vi, w, u])
        rays[i] = [vi, u, w]


# ---------------------------------------------------------------------------
# random polynomials for the property suites


def random_polynomial(rng, polygon, denom=7, spread=40):
    """Random coefficients on all lattice points of the polygon."""
    terms = {}
    for p in polygon.lattice_points():
        terms[p] = Fraction(rng.randint(-spread, spread), rng.randint(1, denom))
    return TropicalPolynomial.make(terms)
