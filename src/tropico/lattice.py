"""Convex lattice polygons and the exact toric invariants attached to them.

Everything here is integer or rational arithmetic; there is no floating
point anywhere in the package.  A lattice vector is a plain ``(x, y)``
tuple of ints, and a polygon is a `Record` whose one field is the cyclic
tuple of its vertices.  The direction data of a polygon transverse to a
direction d (its left and right boundary directions and its top and
bottom lengths) come from one pass over its edges.  The package's one
union-find (component_roots) lives here too.
"""

from __future__ import annotations

import math
from functools import cache, cached_property, cmp_to_key
from operator import attrgetter


_set_field = object.__setattr__


class Record:
    """Base of the package's immutable value classes.

    A subclass lists its fields as class annotations, in order, and gives a
    default as a class attribute.  It is constructed by position or by
    keyword, after which its ``__post_init__`` (if any) checks or
    normalises the fields, through ``object.__setattr__``.  Equality holds
    only within one class and compares the fields alone; the hash is
    ``hash`` of the tuple of fields, and the repr is ``Name(field=value,
    ...)``.  Assigning or deleting an attribute raises AttributeError; a
    ``functools.cached_property`` still fills the instance ``__dict__``
    once, and neither equality nor the hash reads it.  No code is
    generated: a subclass is set up by `__init_subclass__` alone.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = fields
        cls._defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        if len(fields) == 1:
            get = attrgetter(fields[0])
            cls._values = staticmethod(lambda record: (get(record),))
        else:
            cls._values = staticmethod(attrgetter(*fields))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # one object.__setattr__ per field, as a frozen dataclass does:
        # touching self.__dict__ here would turn off CPython's inline
        # attribute storage and make every later field read slower
        for field, value in zip(fields, args):
            _set_field(self, field, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values of a call with keywords, defaults or a wrong
        number of arguments, or the TypeError a function would raise."""
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} positional arguments but {len(args)} were given"
            )
        for key in kwargs:
            if key in fields[:len(args)]:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs[field])
            elif field in cls._defaults:
                values.append(cls._defaults[field])
            else:
                raise TypeError(f"{name}() missing required argument: {field!r}")
        return values

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class TropicoError(Exception):
    """Base of the package's domain errors: an input that the library
    refuses.  The CLI reports one as JSON and exits with code 1."""


class InvariantViolation(Exception):
    """A result broke an identity that holds for every valid input: a bug,
    not a bad input, so it derives from no domain error.  ``violations``
    lists what failed, if more than ``what`` says."""

    def __init__(self, what, violations=()):
        violations = list(violations)
        super().__init__(f"{what}: {'; '.join(violations)}" if violations else what)
        self.violations = violations


class LatticeError(TropicoError):
    pass


class DegeneratePolygon(LatticeError):
    pass


class NonPositiveDeterminant(LatticeError):
    pass


class NotPrimitive(LatticeError):
    pass


class NotTransverse(LatticeError):
    pass


# ---------------------------------------------------------------------------
# lattice vectors


def det(u, v):
    """2x2 determinant det(u, v) = u.x * v.y - u.y * v.x."""
    return u[0] * v[1] - u[1] * v[0]


def dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def perp(v):
    """Rotation by +pi/2: (x, y) -> (-y, x)."""
    return (-v[1], v[0])


def add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def scale(v, c):
    return (v[0] * c, v[1] * c)


def is_primitive(v):
    """gcd(|x|, |y|) == 1; the zero vector is never primitive."""
    return math.gcd(v[0], v[1]) == 1


def primitive(v):
    """v divided by gcd(|x|, |y|); rejects the zero vector."""
    g = math.gcd(v[0], v[1])
    if g == 0:
        raise NotPrimitive("zero vector has no primitive direction")
    return (v[0] // g, v[1] // g)


def integral_length(p, q):
    """Number of lattice points on the segment [p, q] minus one."""
    return math.gcd(abs(q[0] - p[0]), abs(q[1] - p[1]))


def sort_by_angle(vectors):
    """Sort nonzero vectors counterclockwise starting at direction (1, 0)."""

    def cmp(u, v):
        # the half-plane from (1, 0) up to (-1, 0) first; within one, the
        # cross product decides, and parallel vectors tie
        hu = not (u[1] > 0 or (u[1] == 0 and u[0] > 0))
        hv = not (v[1] > 0 or (v[1] == 0 and v[0] > 0))
        if hu != hv:
            return hu - hv
        c = det(u, v)
        return (c < 0) - (c > 0)

    return sorted(vectors, key=cmp_to_key(cmp))


# ---------------------------------------------------------------------------
# connected components


def component_roots(nodes, links):
    """Union-find: map each node to the root of its connected component
    after joining the pairs (a, b) of links in order, each join making the
    root of b's part the root of a's part (path halving)."""
    parent = {v: v for v in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        parent[find(a)] = find(b)
    return {v: find(v) for v in parent}


def component_count(nodes, links):
    """Number of connected components of the graph on nodes with the given
    links (pairs of nodes)."""
    return len(set(component_roots(nodes, links).values()))


# ---------------------------------------------------------------------------
# polygons


def _shoelace2(vertices):
    """Twice the signed area: det(p, q) summed over the sides (p, q)."""
    px, py = vertices[-1]
    total = 0
    for x, y in vertices:
        total += px * y - py * x
        px, py = x, y
    return total


def _strip_collinear(vertices):
    pts = list(vertices)
    changed = True
    while changed and len(pts) >= 3:
        changed = False
        for i in range(len(pts)):
            a, b, c = pts[i - 1], pts[i], pts[(i + 1) % len(pts)]
            if b == a or det(sub(b, a), sub(c, b)) == 0:
                del pts[i]
                changed = True
                break
    return pts


def _ring_fault(ring):
    """Why ring, of 3 or more points, is not a stored polygon's vertices, or
    None if it is: it must turn strictly left at each vertex, wind once and
    start from its least point.  One pass checks the three, for both
    LatticePolygon constructors."""
    first = ring[0]
    (ax, ay), (bx, by) = ring[-2], ring[-1]
    ux, uy = bx - ax, by - ay
    winds = 0
    for p in ring:
        vx, vy = p[0] - bx, p[1] - by
        if ux * vy - uy * vx <= 0:
            return f"does not turn strictly left at {(bx, by)}"
        # the direction passes (1, 0): from the lower half-plane to the upper
        if (uy < 0 or (uy == 0 and ux < 0)) and (vy > 0 or (vy == 0 and vx > 0)):
            winds += 1
        if p < first:
            return "does not start from its least point"
        ux, uy, bx, by = vx, vy, p[0], p[1]
    return f"winds {winds} times" if winds != 1 else None


class LatticePolygon(Record):
    """Strictly convex polygon with integral vertices, stored counterclockwise.

    Clockwise input is silently reversed; consecutive collinear or repeated
    vertices are merged.  Segments and points are rejected, and so is what
    then fails the stored form's check (_ring_fault), such as a reflex
    corner.  A ring that is already in the stored form, such as a hull's
    (hull_ring), is checked alike and taken as it is by from_ring.
    """

    vertices: tuple

    def __post_init__(self):
        pts = []
        for x, y in self.vertices:
            if x != int(x) or y != int(y):
                raise DegeneratePolygon("vertices must be integral")
            pts.append((int(x), int(y)))
        pts = _strip_collinear(pts)
        if len(pts) < 3:
            raise DegeneratePolygon("need at least 3 non-collinear vertices")
        if _shoelace2(pts) < 0:
            pts.reverse()
        start = min(range(len(pts)), key=pts.__getitem__)
        ring = tuple(pts[start:] + pts[:start])
        fault = _ring_fault(ring)
        if fault:
            raise DegeneratePolygon(f"polygon {fault}")
        _set_field(self, "vertices", ring)

    @classmethod
    def from_ring(cls, ring):
        """The polygon whose stored vertices are ring: lattice points
        counterclockwise from the least one, turning strictly left at each
        and winding once, as hull_ring returns them (_ring_fault).  A ring
        that fails is a bug of its maker and raises InvariantViolation.
        Nothing is stripped, turned or rotated."""
        if len(ring) < 3:
            raise InvariantViolation(f"ring {ring} has fewer than 3 vertices")
        fault = _ring_fault(ring)
        if fault:
            raise InvariantViolation(f"ring {ring} {fault}")
        polygon = cls.__new__(cls)
        _set_field(polygon, "vertices", tuple(ring))
        return polygon

    def __repr__(self):
        return f"LatticePolygon({list(self.vertices)!r})"

    def edges(self):
        """Edges as (tail, head) pairs in counterclockwise order."""
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    def edge_vectors(self):
        return [sub(q, p) for p, q in self.edges()]

    def translate(self, v):
        return LatticePolygon([add(p, v) for p in self.vertices])

    def double_area(self):
        """Twice the Euclidean area (shoelace); a nonnegative integer."""
        return _shoelace2(self.vertices)

    def boundary_points(self):
        """Card of the set of lattice points on the boundary."""
        return sum(integral_length(p, q) for p, q in self.edges())

    def contains(self, point, strict=False):
        """Exact membership test; works for rational points as well."""
        for p, q in self.edges():
            s = (q[0] - p[0]) * (point[1] - p[1]) - (q[1] - p[1]) * (point[0] - p[0])
            if s < 0 or (strict and s == 0):
                return False
        return True

    def interior_points(self):
        """Interior lattice points, computed once: the column lengths of
        `_columns`, summed, minus the boundary points.  Linear in the width,
        and independent of Pick's formula, so pick_identity stays an honest
        cross-check."""
        return self._interior_points

    @cached_property
    def _interior_points(self):
        _, lo, hi = self._columns()
        return sum(hi) - sum(lo) + len(lo) - self.boundary_points()

    def lattice_points(self):
        """The lattice points of the polygon, boundary included, in (x, y)
        order, column by column (`_columns`).  A triangle of double area 1,
        the cell of a unimodular subdivision, is its sorted corners without
        a scan: by Pick's theorem it holds no other lattice point."""
        if len(self.vertices) == 3 and _shoelace2(self.vertices) == 1:
            return sorted(self.vertices)
        x0, lo, hi = self._columns()
        return [(x0 + i, y) for i, (a, b) in enumerate(zip(lo, hi)) for y in range(a, b + 1)]

    def _columns(self):
        """(x0, lo, hi): at each integer x = x0 + i from the least abscissa
        of the polygon to the greatest, its lattice points are the y with
        lo[i] <= y <= hi[i], from the ceiling of its lower edges' intercept
        to the floor of its upper edges'.  Counterclockwise, an edge that
        runs right is a lower edge and one that runs left an upper edge; a
        vertical edge adds nothing that its neighbours' ends do not."""
        xs = [p[0] for p in self.vertices]
        x0 = min(xs)
        lo = [0] * (max(xs) - x0 + 1)
        hi = lo[:]
        for (px, py), (qx, qy) in self.edges():
            if px < qx:
                dx, dy = qx - px, qy - py
                for x in range(px, qx + 1):
                    lo[x - x0] = -(-(py * dx + (x - px) * dy) // dx)
            elif px > qx:
                dx, dy = px - qx, py - qy
                for x in range(qx, px + 1):
                    hi[x - x0] = (qy * dx + (x - qx) * dy) // dx
        return x0, lo, hi

    def pick_identity(self):
        """2A == 2*interior + boundary - 2; must hold for every instance."""
        return self.double_area() == 2 * self.interior_points() + self.boundary_points() - 2

    def corner_directions(self):
        """Per vertex v, (v, u', u''): the primitive directions from v along
        its two edges, u' toward the next vertex and u'' toward the
        previous one, so that the angle from u' counterclockwise to u''
        opens into the polygon."""
        n = len(self.vertices)
        out = []
        for i in range(n):
            v = self.vertices[i]
            prev = self.vertices[(i - 1) % n]
            nxt = self.vertices[(i + 1) % n]
            u2 = primitive(sub(prev, v))
            u1 = primitive(sub(nxt, v))
            out.append((v, u1, u2))
        return out

    def vertex_singularities(self):
        """[(vertex, order, k)] for each corner, via vertex_singularity."""
        return [(v, *vertex_singularity(u1, u2)) for v, u1, u2 in self.corner_directions()]


def monotone_chain(points):
    """Lower convex chain of points given in increasing (x, y) order: the
    points it keeps turn strictly left from each one to the next, so a
    point on or above the chord of its neighbours is dropped.  Given in
    decreasing order, the points yield the upper chain.  Coordinates may
    be rational."""
    chain = []
    for p in points:
        while len(chain) >= 2:
            (ax, ay), (bx, by) = chain[-2], chain[-1]
            if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) > 0:
                break
            chain.pop()
        chain.append(p)
    return chain


def hull_ring(points):
    """The vertices of the convex hull of points, given sorted and
    distinct: the lower chain and then the upper one, each without its last
    point, so counterclockwise from the least point and turning strictly
    left at each (LatticePolygon.from_ring's form); fewer than 3 when the
    points are collinear."""
    return monotone_chain(points)[:-1] + monotone_chain(reversed(points))[:-1]


def convex_hull(points):
    """Convex hull of integer points, as the LatticePolygon of its
    hull_ring, which refuses a hull vertex that is not a lattice point and
    a hull of collinear points."""
    pts = sorted({(x, y) for x, y in points})
    if len(pts) < 3:
        raise DegeneratePolygon("hull of fewer than 3 distinct points")
    return LatticePolygon(hull_ring(pts))


def triangle(d):
    """T_d: the Newton polygon of plane curves of degree d."""
    if d < 1:
        raise DegeneratePolygon("degree must be positive")
    return LatticePolygon([(0, 0), (d, 0), (0, d)])


def trapezium(r, a, b):
    """Tz^r_{a,b}: width b + (a - y) * r at height y, 0 <= y <= a.

    This is the polygon of the linear system |aH + bF| on the Hirzebruch
    surface F_r; the width rule is fixed so that the bottom edge has
    integral length b + a*r and the interior point count matches the
    genus of the system (e.g. 8 for r=2, a=3, b=2).
    """
    if a < 1 or b < 0 or r < 0 or (b == 0 and r == 0):
        raise DegeneratePolygon("invalid trapezium parameters")
    pts = [(0, 0), (b + a * r, 0), (b, a), (0, a)]
    return LatticePolygon(pts)


# fixtures from the worked toric examples
def diamond():
    """Unit diamond with vertices (0,1),(1,0),(2,1),(1,2): p_a = 1, 2A = 4."""
    return LatticePolygon([(0, 1), (1, 0), (2, 1), (1, 2)])


def octic_quadrilateral():
    """Quadrilateral with sides of integral lengths 1,2,1,2: p_a = 2, 2A = 8."""
    return LatticePolygon([(0, 0), (1, 1), (3, -1), (2, -2)])


def cubic_triangle():
    """Triangle (0,0),(2,1),(1,2): one interior point, 1/3(1,2) corners."""
    return LatticePolygon([(0, 0), (2, 1), (1, 2)])


# ---------------------------------------------------------------------------
# quotient singularities at the corners


def vertex_singularity(u_prime, u_second):
    """Type (order, k) of the cyclic quotient singularity spanned by a corner.

    u_prime, u_second are the primitive directions of the two edges leaving
    the vertex, ordered so that det(u_prime, u_second) > 0 (the angle opens
    into the polygon).  order = det(u_prime, u_second); k is the unique
    residue in [0, order) such that some lattice basis (e1, e2) satisfies
    perp(u_prime) = e2 and -perp(u_second) = order*e1 - k*e2.  (1, 0) is a
    smooth point, (2, 1) an ordinary double point.
    """
    for u in (u_prime, u_second):
        if not is_primitive(u):
            raise NotPrimitive(f"{u} is not primitive")
    order = det(u_prime, u_second)
    if order <= 0:
        raise NonPositiveDeterminant(f"det{u_prime, u_second} = {order} <= 0")
    if order == 1:
        return (1, 0)
    a = perp(u_prime)
    b = scale(perp(u_second), -1)
    # solve b + k*a == 0 (mod order) componentwise; a is primitive so a
    # Bezout pair (l, m) with l*a.x + m*a.y = 1 inverts it
    g, l, m = _xgcd(a[0], a[1])
    if g != 1:
        raise InvariantViolation(f"gcd of {a} is {g}, not 1")
    k = (-(l * b[0] + m * b[1])) % order
    if (b[0] + k * a[0]) % order or (b[1] + k * a[1]) % order:
        raise InvariantViolation("no normal form; inputs do not span a corner")
    e1 = ((b[0] + k * a[0]) // order, (b[1] + k * a[1]) // order)
    if det(e1, a) != 1 or math.gcd(k, order) != 1:
        raise InvariantViolation(f"normal form ({order}, {k}) with basis {e1}, {a} is not unimodular")
    return (order, k)


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# ---------------------------------------------------------------------------
# transversality and direction data for a stretching direction d


def is_transverse(poly, d):
    """True iff every edge direction u not orthogonal to d (the left and
    right boundary) has det(u, perp(d)) = +-1.

    det(u, perp(d)) equals -<d, u>, so the condition says each such edge
    advances by exactly one lattice step along d.
    """
    if not is_primitive(d):
        raise NotPrimitive(f"direction {d} is not primitive")
    return all(abs(dot(d, primitive(w))) == 1 for w in poly.edge_vectors() if dot(d, w))


@cache
def slope_reference(d):
    """Canonical u_ref with <d, u_ref> = -1 and det(d, u_ref) in [0, |d|^2).

    For d = (0, 1) this is (0, -1), so that left directions (1, m) get the
    integer slope coordinate m.  Memoised, since it depends only on the
    direction d, a tuple.
    """
    g, l, m = _xgcd(d[0], d[1])
    if g != 1:
        raise NotPrimitive(f"direction {d} is not primitive")
    u = (-l, -m)  # <d, u> = -1
    n2 = d[0] * d[0] + d[1] * d[1]
    shift = det(d, u) % n2
    # u + t*perp(d) changes det(d, u) by t*|d|^2
    t = (shift - det(d, u)) // n2
    u = add(u, scale(perp(d), t))
    if dot(d, u) != -1 or not 0 <= det(d, u) < n2:
        raise InvariantViolation(f"slope reference {u} of {d} is not normalized")
    return u


@cache
def slope_vector(d, theta):
    """Left direction vector with slope coordinate theta: perp(u_ref) + theta*d.
    Memoised, as slope_reference is: realize asks for one per floor piece."""
    return add(perp(slope_reference(d)), scale(d, theta))


@cache
def slope_of(d, vec):
    """Inverse of slope_vector; raises if vec is not a valid floor direction.
    Memoised: the floor decomposition asks for one per piece direction."""
    base = perp(slope_reference(d))
    diff = sub(vec, base)
    if d[0] != 0:
        theta, rem = divmod(diff[0], d[0])
    else:
        theta, rem = divmod(diff[1], d[1])
    if rem != 0 or sub(vec, scale(d, theta)) != base:
        raise LatticeError(f"{vec} is not a floor direction for d={d}")
    return theta


class DirectionData(Record):
    """Boundary data of a transverse polygon with respect to direction d.

    D_left / D_right are the unordered direction lists: for every left
    (right) boundary edge written as l_Z(S) * u going down along d with
    det(perp(d), u) = +1, the vector perp(u) repeated l_Z(S) times.
    d_plus / d_minus are the integral lengths of the top / bottom edges
    parallel to perp(d), 0 if absent.
    """

    d: tuple
    D_left: tuple
    D_right: tuple
    d_plus: int
    d_minus: int
    d_height: int

    def thetas_left(self):
        return self._thetas[0]

    def thetas_right(self):
        return self._thetas[1]

    @cached_property
    def _thetas(self):
        """The sorted slope coordinates of D_left and D_right, computed once."""
        return tuple(
            tuple(sorted(slope_of(self.d, v) for v in vectors))
            for vectors in (self.D_left, self.D_right)
        )


def direction_data(poly, d):
    """Direction lists, top/bottom lengths and d-height of a transverse polygon.

    One pass over the counterclockwise edges sorts each edge (p, q) by
    <d, q - p>: negative puts it on the left boundary, positive on the
    right boundary (reoriented to go down along d), zero makes it the top
    or bottom edge.
    """
    if not is_transverse(poly, d):
        raise NotTransverse(f"{poly!r} is not transverse to d={d}")
    pd = perp(d)
    d_left, d_right = [], []
    d_plus = d_minus = 0
    heights = [dot(d, v) for v in poly.vertices]
    for p, q in poly.edges():
        side = dot(d, sub(q, p))
        if side == 0:
            h = dot(d, p)
            if h == max(heights):
                d_plus = integral_length(p, q)
            elif h == min(heights):
                d_minus = integral_length(p, q)
            else:
                raise InvariantViolation(f"edge {p}-{q} orthogonal to d={d} is neither top nor bottom")
            continue
        if side > 0:
            p, q = q, p
        u = primitive(sub(q, p))
        if det(pd, u) != 1:
            raise InvariantViolation(f"boundary edge {p}-{q} is not transverse to d={d}")
        (d_left if side < 0 else d_right).extend([perp(u)] * integral_length(p, q))
    height = len(d_left)
    if height != len(d_right) or 2 * height + d_plus + d_minus != poly.boundary_points():
        raise InvariantViolation(
            f"direction data of {poly!r} for d={d}: heights {height}, {len(d_right)},"
            f" d+ = {d_plus}, d- = {d_minus} do not partition the boundary"
        )
    return DirectionData(
        d=d,
        D_left=tuple(sort_by_angle(d_left)),
        D_right=tuple(sort_by_angle(d_right)),
        d_plus=d_plus,
        d_minus=d_minus,
        d_height=height,
    )


def transverse_directions(poly, bound=2):
    """Primitive directions d with |dx|,|dy| <= bound that make poly transverse.

    A finite probe only; nothing is claimed about directions beyond the
    bound.
    """
    out = []
    for dx in range(-bound, bound + 1):
        for dy in range(-bound, bound + 1):
            dvec = (dx, dy)
            if dvec == (0, 0) or not is_primitive(dvec):
                continue
            if is_transverse(poly, dvec):
                out.append(dvec)
    return out


def random_lattice_polygon(rng, max_coord=9, max_points=8):
    """Random strictly convex lattice polygon: hull of random lattice points."""
    while True:
        n = rng.randint(3, max_points)
        pts = {(rng.randint(0, max_coord), rng.randint(0, max_coord)) for _ in range(n)}
        try:
            return convex_hull(pts)
        except DegeneratePolygon:
            continue
