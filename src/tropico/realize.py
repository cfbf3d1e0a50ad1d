"""Realize marked floor diagrams as plane tropical curves on stretched points.

Coordinates are handled intrinsically for any primitive stretching
direction d: heights are measured by <d, p>, transverse abscissae by
<e, p> with e = -perp(d), so that every floor direction advances the
abscissa by exactly one.  A floor is a piecewise-linear path whose slope
starts at theta on the far left and jumps by (+-weight) at each elevator
it meets; the marked point of each element pins its position.  `realize`
takes every floor's bends from one pass over the diagram's edges.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from . import diagram as diagram_mod
from . import lattice
from .lattice import Record, component_count, component_roots, dot, perp, scale, slope_of, slope_vector
from .tropical import NotClosed, ParametrizedCurve, PEdge, _dual_polygon, _integral_frame, _traces


class RealizeError(lattice.TropicoError):
    pass


class SpacingTooSmall(RealizeError):
    pass


class InvalidMarking(RealizeError):
    pass


def _transverse_axis(d):
    return scale(perp(d), -1)


class IntegerFrame(NamedTuple):
    """A configuration's abscissae and heights as integers (each value times
    scale, the lcm of their denominators) by slot, label - label_start: xs
    the Omega- lines, points, Omega+ lines; hs the points' heights, or None."""

    scale: int
    xs: tuple
    hs: tuple


class PointConfig(Record):
    """Stretched base points plus fixed boundary lines.

    points are ordered by increasing height along the direction;
    omega_minus / omega_plus are the abscissae (values of <e, .>) of the
    fixed lines for the bottom / top tangency conditions, listed in
    marking-block order; frame lists all three by marking label.
    """

    direction: tuple
    points: tuple
    omega_minus: tuple
    omega_plus: tuple

    def __post_init__(self):
        d = self.direction
        heights = [dot(d, p) for p in self.points]
        if any(a >= b for a, b in zip(heights, heights[1:])):
            raise RealizeError("points must strictly increase along the direction")
        e = _transverse_axis(d)
        taus = [*self.omega_minus, *(dot(e, p) for p in self.points), *self.omega_plus]
        if len(set(taus)) != len(taus):
            raise RealizeError("transverse coordinates must be pairwise distinct")

    @functools.cached_property
    def frame(self):
        """The IntegerFrame that `realize` computes on."""
        d, e = self.direction, _transverse_axis(self.direction)
        xs = (*self.omega_minus, *(dot(e, p) for p in self.points), *self.omega_plus)
        hs = [dot(d, p) for p in self.points]
        m = math.lcm(*(v.denominator for v in (*xs, *hs)))
        xs, hs = ([v.numerator * (m // v.denominator) for v in g] for g in (xs, hs))
        lines = [None] * len(self.omega_minus), [None] * len(self.omega_plus)
        return IntegerFrame(m, tuple(xs), (*lines[0], *hs, *lines[1]))

    @property
    def omega_lines(self):
        """(base, direction) per Omega line, omega_minus then omega_plus: the
        point of abscissa omega on the line through the origin along the
        transverse axis, and the stretching direction."""
        d = self.direction
        e, n2 = _transverse_axis(d), dot(d, d)
        omegas = (*self.omega_minus, *self.omega_plus)
        return [((om * e[0] / n2, om * e[1] / n2), d) for om in omegas]

    @functools.cached_property
    def point_frame(self):
        """(m, integer points): tropical._integral_frame of the points in
        plane coordinates, which verify_realization's point test reads."""
        return _integral_frame(self.points)


@functools.lru_cache(maxsize=64)
def stretch_points(spec, seed=0, spacing=None):
    """Deterministic stretched configuration for a diagram spec.

    s = g - 1 + 2 d_height + |b+| + |b-| points with heights i * M and
    low-discrepancy transverse coordinates keyed by the seed; M defaults
    to a slope bound derived from the polygon and escalates externally.
    The configuration depends on (spec, seed, spacing) only and is
    immutable, so every marked diagram of a spec shares one.
    """
    spec.check()
    d = spec.direction
    if spacing is None:
        spacing = default_spacing(spec)
    e = _transverse_axis(d)
    n2 = dot(d, d)
    p1, p2, na, nb = 1_000_003, 999_983, sum(spec.alpha_minus), sum(spec.alpha_plus)
    taus = [Fraction((7919 * (i + 1) + 104729 * (seed + 1)) % p1 or 1, p1) for i in range(spec.s)]
    omis = [Fraction((6007 * (j + 1) + 31337 * (seed + 1)) % p2 or 1, p2) for j in range(na)]
    opls = [Fraction((6007 * (j + 17) + 31337 * (seed + 2)) % p2 or 2, p2) for j in range(nb)]
    hs = [Fraction(spacing) * (i + 1) for i in range(spec.s)]
    points = tuple((h * d[0] / n2 + t * e[0] / n2, h * d[1] / n2 + t * e[1] / n2)
                   for h, t in zip(hs, taus))
    return PointConfig(d, points, tuple(omis), tuple(opls))


@functools.lru_cache(maxsize=64)
def default_spacing(spec):
    """Height gap dominating any slope the floors can reach over the unit
    abscissa window occupied by the marked points and Omega lines; it
    depends on the spec alone, so every marked diagram of a spec shares
    one computation."""
    dd = spec.data
    n2 = dot(spec.direction, spec.direction)
    total_weight = spec.polygon.boundary_points() + spec.genus
    thetas = dd.thetas_left() + dd.thetas_right()
    mmax = max(abs(t) for t in thetas) + total_weight
    sigma0 = abs(dot(spec.direction, perp(lattice.slope_reference(spec.direction))))
    return 2 + 2 * (sigma0 + mmax * n2)


class Realization(Record):
    """A parametrized tropical curve realizing a marked diagram, plus the
    geometry of its floors and elevators in the integers of the frame
    realize computed on: each abscissa and height times unit."""

    curve: ParametrizedCurve
    floors: tuple  # (floor_id, ((xi, h) breakpoints...), slopes tuple), times unit
    elevators: tuple  # xi of each edge, by index, times unit
    unit: int
    spec: object
    diagram: object
    marking: object

    @functools.cached_property
    def floor_paths(self):
        """(floor_id, ((xi, h) breakpoints...), slopes tuple) in Fractions."""
        u = self.unit
        return tuple(
            (f, tuple((Fraction(x, u), Fraction(h, u)) for x, h in bps), slopes)
            for f, bps, slopes in self.floors
        )

    @functools.cached_property
    def elevator_lines(self):
        """(edge_index, xi) in Fractions."""
        return tuple((idx, Fraction(x, self.unit)) for idx, x in enumerate(self.elevators))


def realize(diagram, marking, cfg, spec):
    """Construct the unique tropical curve of a marked diagram on cfg.

    Each marked elevator's supporting line passes through its point (or
    its Omega line); each floor starts at slope theta on the left, bends
    by epsilon * weight at every elevator, and is translated along the
    direction to contain its own marked point.  Raises InvalidMarking with
    the violations of `diagram.validate_verbose` or of
    `diagram.marking_violations`, RealizeError when cfg does not fit the
    spec, and SpacingTooSmall when the prescribed incidences collide.

    The diagram is read once: one pass over its edges gives each edge its
    abscissa and each floor its bends (abscissa, edge index, +-weight).  A
    floor's heights follow outward from its marked point, with theta from
    diagram.floors and theta + divergence from diagram.floor_data, and a
    (floor, edge) -> (source vertex, height) table joins the elevators and
    tails to their bends.

    A floor's elevators and marked point have distinct abscissae: each
    element has its own label, and PointConfig refuses equal ones.

    Abscissae and heights are the integers of cfg.frame (the values times
    its scale L), read at each element's label: slopes are integers, so
    every breakpoint height and every comparison is an integer one.
    Fractions are built only for the curve's positions, which is handed its
    frame (ParametrizedCurve.frame) from the same integers; the floors and
    elevators stay integers, with L as the realization's unit.
    """
    if not diagram.valid_for(spec):
        violations = diagram_mod.validate_verbose(diagram, spec)[1]
        raise InvalidMarking(f"diagram does not validate against the spec: {'; '.join(violations)}")
    violations = diagram_mod.marking_violations(diagram, marking, spec)
    if violations:
        raise InvalidMarking("; ".join(violations))
    d = spec.direction
    e = _transverse_axis(d)
    n2 = dot(d, d)
    frame = cfg.frame
    misfit = _misfit(cfg, spec)
    if misfit:
        raise RealizeError(misfit)
    # each element's slot in the frame: its label's position in the range
    slot = {el: i for i, el in enumerate(marking.labels)}

    # supporting abscissa of every edge, and the bend it puts on each floor
    edge_xi = []
    bends = {f: [] for f in diagram.floor_ids}
    for idx, (a, b, w) in enumerate(diagram.edges):
        x = frame.xs[slot["e", idx]]
        edge_xi.append(x)
        if a in bends:
            bends[a].append((x, idx, -w))  # leaves floor a upward
        if b in bends:
            bends[b].append((x, idx, w))  # arrives at floor b from below

    sigma0 = dot(d, perp(lattice.slope_reference(d)))
    unit = frame.scale
    den = n2 * unit
    nums, pedges, floors = [], [], []  # nums: the positions times den
    at = {}  # (floor, edge index) -> (source vertex, height) of the bend
    for (f, theta), right in zip(diagram.floors, diagram.floor_data[1]):
        inc = sorted(bends[f])
        xs = [x for x, _, _ in inc]
        xi_a, h_a = frame.xs[slot["f", f]], frame.hs[slot["f", f]]
        slopes = list(itertools.accumulate((jump for _, _, jump in inc), initial=theta))
        if slopes[-1] != right:
            raise lattice.InvariantViolation(
                f"floor {f}: slope {slopes[-1]} after its elevators != theta + divergence"
            )
        # heights outward from the marked point, which lies on piece k (of
        # slope slopes[k], between bends k - 1 and k); dh/dxi on a piece of
        # slope m is sigma0 + m * n2
        k = bisect.bisect(xs, xi_a)
        hs = [0] * len(xs)
        for run in (range(k, len(xs)), range(k - 1, -1, -1)):
            x, h = xi_a, h_a
            for j in run:  # bend j joins piece j to piece j + 1
                h += (sigma0 + slopes[j + (j < k)] * n2) * (xs[j] - x)
                x, hs[j] = xs[j], h
        # source graph: the floor's breakpoints, its pieces and its two rays
        first = len(nums)
        for (x, idx, _), h in zip(inc, hs):
            at[f, idx] = (len(nums), h)
            nums.append((h * d[0] + x * e[0], h * d[1] + x * e[1]))
        for j in range(1, len(xs)):
            pedges.append(PEdge(first + j - 1, first + j, 1, slope_vector(d, slopes[j])))
        pedges.append(PEdge(first, -1, 1, scale(slope_vector(d, slopes[0]), -1)))
        pedges.append(PEdge(len(nums) - 1, -1, 1, slope_vector(d, slopes[-1])))
        floors.append((f, tuple(zip(xs, hs)), tuple(slopes)))

    # elevators and tails, from the bends they join
    for idx, (a, b, w) in enumerate(diagram.edges):
        hp = frame.hs[slot["e", idx]]  # None on an Omega line
        if a in bends and b in bends:
            (ia, ha), (ib, hb) = at[a, idx], at[b, idx]
            if ha >= hb:
                raise SpacingTooSmall(
                    f"elevator {idx}: floors {a} and {b} are not in height order"
                )
            if hp is not None and not ha < hp < hb:
                raise SpacingTooSmall(f"elevator {idx} misses its marked point")
            pedges.append(PEdge(ia, ib, w, d))
        elif b in bends:  # down tail into floor b
            ib, hb = at[b, idx]
            if hp is not None and not hp < hb:
                raise SpacingTooSmall(f"down tail {idx} misses its marked point")
            pedges.append(PEdge(ib, -1, w, scale(d, -1)))
        else:  # up tail out of floor a
            ia, ha = at[a, idx]
            if hp is not None and not hp > ha:
                raise SpacingTooSmall(f"up tail {idx} misses its marked point")
            pedges.append(PEdge(ia, -1, w, d))

    positions = tuple((Fraction(x, den), Fraction(y, den)) for x, y in nums)
    curve = ParametrizedCurve(positions, tuple(pedges))
    # the curve's frame (tropical._integral_frame of the positions): den and
    # the numerators over it, divided by their gcd
    g = math.gcd(den, *(c for p in nums for c in p))
    object.__setattr__(curve, "frame", (den // g, [(x // g, y // g) for x, y in nums]))
    return Realization(curve, tuple(floors), tuple(edge_xi), unit, spec, diagram, marking)


def _misfit(cfg, spec):
    """Why cfg does not fit spec, or None: its direction and its numbers of
    Omega- lines, points and Omega+ lines must be the spec's."""
    got = (cfg.direction, len(cfg.omega_minus), len(cfg.points), len(cfg.omega_plus))
    want = (spec.direction, sum(spec.alpha_minus), spec.s, sum(spec.alpha_plus))
    return None if got == want else f"configuration {got} does not fit the spec {want}"


MAX_DOUBLINGS = 10


def realize_stretched(diagram, marking, spec, seed=0):
    """Realize on an automatically stretched configuration, doubling the
    spacing on collision, at most MAX_DOUBLINGS times; the sufficient
    spacing is only known asymptotically, so verification is the ground
    truth.  The configuration is one cached stretch_points call per curve:
    the spec is hashed once, and default_spacing is read only when the
    spacing doubles."""
    spacing = None  # stretch_points' default, looked up only to double it
    for _ in range(MAX_DOUBLINGS + 1):
        cfg = stretch_points(spec, seed, spacing)
        try:
            return realize(diagram, marking, cfg, spec), cfg
        except SpacingTooSmall as exc:
            last = exc
            spacing = 2 * (spacing or default_spacing(spec))
    raise SpacingTooSmall(f"no spacing found after {MAX_DOUBLINGS} doublings: {last}")


# ---------------------------------------------------------------------------
# decomposition and verification


def floor_decompose(pc, d):
    """Floor diagram of a parametrized curve with respect to direction d.

    Elevators are the edges with image direction +-d; floors are the
    connected components of the rest, numbered in the order of their
    union-find roots; theta is the slope of each floor's leftmost piece.
    The decomposition reads the curve alone, so `verify_realization` can
    test it against the diagram that was realized.
    """
    return diagram_mod.FloorDiagram(*_decompose(_split(pc, d), d))


def _split(pc, d):
    """(elevators, pieces, comp_of, k): the edges of pc along +-d, the
    others, the floor of each position, and the number of floors.  The
    floors are the components of the positions joined by the bounded
    pieces, numbered in the order of their union-find roots.  Nothing here
    can fail, so `verify_realization` reads the source graph's components
    off it before the decomposition is built."""
    down = scale(d, -1)
    elevator = []
    floorish = []
    for e in pc.edges:
        if e.direction == d or e.direction == down:
            elevator.append(e)
        else:
            floorish.append(e)
    roots = component_roots(range(len(pc.positions)), [(e.a, e.b) for e in floorish if e.b >= 0])
    comp_index = {r: c for c, r in enumerate(sorted(set(roots.values())))}
    comp_of = {v: comp_index[r] for v, r in roots.items()}
    return elevator, floorish, comp_of, len(comp_index)


def _decompose(split, d):
    """`floor_decompose`'s diagram as its fields (floors, inf_minus,
    inf_plus, edges), unbuilt, from the `_split` of the curve along d."""
    elevator, floorish, comp_of, k = split
    # the slope of each piece direction, oriented toward increasing
    # abscissa, and whether the direction points left
    slopes = {}
    axis = _transverse_axis(d)
    left, first = {}, {}  # floor -> slope of its leftward ray / first piece
    for e in floorish:
        u = e.direction
        known = slopes.get(u)
        if known is None:
            t = dot(axis, u)
            known = slopes[u] = slope_of(d, u if t > 0 else scale(u, -1)), t < 0
        m, leftward = known
        c = comp_of[e.a]
        if e.b < 0 and leftward:
            left[c] = m  # the leftward infinite piece carries theta
        first.setdefault(c, m)
    floors = []
    for c in range(k):
        th = left.get(c, first.get(c))
        if th is None:
            raise RealizeError(f"floor component {c} has no transverse piece")
        floors.append((c, th))

    edges = []
    inf_minus, inf_plus = [], []
    nid = k
    for e in elevator:
        up = e.direction == d
        if e.b >= 0:
            a, b = (comp_of[e.a], comp_of[e.b]) if up else (comp_of[e.b], comp_of[e.a])
            edges.append((a, b, e.weight))
        elif up:
            edges.append((comp_of[e.a], nid, e.weight))
            inf_plus.append(nid)
            nid += 1
        else:
            edges.append((nid, comp_of[e.a], e.weight))
            inf_minus.append(nid)
            nid += 1
    return tuple(floors), tuple(inf_minus), tuple(inf_plus), tuple(edges)


def _recovers(data, floor_of, diagram, sizes):
    """Whether the decomposition with `_floor_data` data, whose position v
    lies on floor floor_of[v], equals diagram under the floor map of
    realize's layout: positions come floor by floor, sizes[i] of them for
    the floor at position i of diagram.floors, so the floor of each block's
    first position goes to that floor.  When that map is a bijection under
    which the thetas, finite edges and tails agree, the two are isomorphic;
    a False decides nothing."""
    n = len(diagram.floors)
    lefts, _, fins, downs, ups = data
    if len(lefts) != n or len(sizes) != n:
        return False
    to, start = {}, 0
    for i, size in enumerate(sizes):
        if start >= len(floor_of):
            return False
        to.setdefault(floor_of[start], i)
        start += size
    if len(to) != n:
        return False
    # the decomposition's floors are 0..n-1 in order, so its floor
    # positions are its ids
    want = diagram.floor_data
    return (
        sorted([(to[c], th) for c, th in enumerate(lefts)]) == list(enumerate(want[0]))
        and sorted([(to[s], to[t], w) for s, t, w in fins]) == sorted(want[2])
        and sorted([(to[t], w) for t, w in downs]) == sorted(want[3])
        and sorted([(to[s], w) for s, w in ups]) == sorted(want[4])
    )


def points_on_curve(pc, framed, hints=()):
    """Exact membership of each point in the image of a parametrized curve.

    framed is the (m, integer points) frame of the points (for a
    configuration, PointConfig.point_frame); the positions are read in
    pc.frame, and the two are compared in the product of their scales.  A
    point lies on an edge when it is collinear with it (cross product 0)
    and its parameter along the direction lies between 0 and the far end's
    (dot products).  Point i is tested first on the edges hints[i] lists
    (an index the curve does not have is skipped), and on every edge only
    when it misses them: the hints decide the cost, never the answer.
    """
    m, ints = pc.frame
    k, points = framed
    edges = pc.edges
    ne = len(edges)
    found = []
    for i, (px, py) in enumerate(points):
        px, py = px * m, py * m
        named = [edges[j] for j in hints[i] if j < ne] if i < len(hints) else ()
        for e in itertools.chain(named, edges):
            (ax, ay), (ux, uy) = ints[e.a], e.direction
            rx, ry = px - ax * k, py - ay * k
            if ux * ry != uy * rx:
                continue
            t = ux * rx + uy * ry
            if t < 0:
                continue
            if e.b < 0 or t <= (ux * (ints[e.b][0] - ax) + uy * (ints[e.b][1] - ay)) * k:
                found.append(True)
                break
        else:
            found.append(False)
    return found


def verify_realization(realization, diagram, marking, cfg, spec):
    """All bijection-side checks; returns the list of violations (empty = pass).

    The violations of the marking rule (`diagram.marking_violations`, which
    `realize` raises) and edges that join a vertex the curve does not have
    are reported alone, before any geometry, since no other check can read
    such a curve or marking: the Omega test would read another label's
    line.  So, next, is a configuration that does not fit the spec
    (_misfit), as `realize` raises it.  Balancing, trivalence and the
    multiplicity come from one cached walk over the curve's star map
    (ParametrizedCurve.star_census), which a later tropical_multiplicity
    reads too.  A curve on which a check cannot be made (rays that span no
    polygon, a vertex that is not trivalent, no floor decomposition) gets a
    violation for it, not an exception.

    A curve that passes costs time linear in its edges.  Each marked point
    is tested first on the edges its label names in the realization's own
    layout (points_on_curve's hints), and against every edge only when it
    misses them.  Its rays trace spec.polygon when their summed weight per
    direction is the polygon's table of outward normals to lattice lengths
    (tropical._traces); only when the tables differ is the ray circuit
    built (_dual_polygon), to name the failure: a drift, or a circuit that
    does not trace the polygon.  Rays that trace it must also meet the top
    and bottom edges in the spec's pattern: `diagram.tail_type_violations`,
    the test `validate_verbose` makes on a diagram's tails, on the weights
    of the rays along -d and +d.  The source graph's components and genus
    come from the one union-find over the positions, that of the floor
    decomposition (_split): its floors joined by the bounded elevators.
    The floor decomposition recovers the diagram when it equals it under
    the floor map of the realization's own layout (_recovers); only when it
    does not are the canonical keys compared, so the verdict is
    isomorphism, on every curve.  Both sides are read as `_floor_data`, the
    diagram's cached, and a FloorDiagram of the decomposition is built only
    for that fallback.  The point test and the Omega test (each alpha
    label's tail on its line; its weight is the marking rule's) are integer
    ones.
    """
    pc = realization.curve
    n = len(pc.positions)
    violations = [
        f"edge {i} joins a vertex that does not exist"
        for i, e in enumerate(pc.edges)
        if not 0 <= e.a < n or e.b >= n
    ]
    violations += diagram_mod.marking_violations(diagram, marking, spec)
    if violations:
        return violations
    misfit = _misfit(cfg, spec)
    if misfit:
        return [misfit]
    balanced, mu, not_trivalent = pc.star_census
    if not balanced:
        violations.append("curve is not balanced")
    # the source graph's components are its floors joined by the bounded
    # elevators, so its genus is bounded edges - positions + components
    d = spec.direction
    split = _split(pc, d)
    elevators, _, floor_of, floors = split
    components = component_count(
        range(floors), [(floor_of[e.a], floor_of[e.b]) for e in elevators if e.b >= 0]
    )
    genus = sum(e.b >= 0 for e in pc.edges) - n + components
    if genus != spec.genus:
        violations.append(f"source genus {genus} != {spec.genus}")
    if components != 1:
        violations.append("source curve disconnected")
    # the edges of realize's layout that each point's label names: its
    # floor's block (pieces and two rays), or its elevator or tail
    labels = marking.as_dict()
    sizes = [len(breaks) for _, breaks, _ in realization.floors]
    starts = list(itertools.accumulate((size + 1 for size in sizes), initial=0))
    named = {("f", f): range(a, b) for (f, _), a, b in zip(diagram.floors, starts, starts[1:])}
    tails = starts[-1]
    named.update((("e", i), (tails + i,)) for i in range(len(diagram.edges)))
    hints = [named.get(labels.get(i + 1), ()) for i in range(len(cfg.points))]
    for i, on in enumerate(points_on_curve(pc, cfg.point_frame, hints)):
        if not on:
            violations.append(f"point {i + 1} not on the curve")
    # the rays trace the polygon: their summed weight per direction is its
    # table (_traces), or else their circuit is its polygon
    rays = [(e.direction, e.weight) for e in pc.edges if e.b < 0]
    traced = _traces(rays, spec.polygon)
    if not traced:
        try:
            traced = _dual_polygon(rays).edge_vectors() == spec.polygon.edge_vectors()
            if not traced:
                violations.append("ray circuit does not trace the Newton polygon")
        except NotClosed as exc:
            violations.append(str(exc))
        except lattice.DegeneratePolygon:
            # the rays close up but span no polygon, e.g. two opposite rays
            violations.append("ray circuit does not trace the Newton polygon")
    # and meet the top and bottom edges in the spec's pattern: the weights of
    # the rays along -d and +d are of its type
    if traced:
        down = scale(d, -1)
        violations += diagram_mod.tail_type_violations(
            [w for u, w in rays if u == down], [w for u, w in rays if u == d], spec
        )
    # alpha rays supported on their Omega lines, by edge index: the
    # realization's abscissa times cfg's scale against the line's times the
    # realization's unit, since cfg may not be the one realized on
    frame, unit, start = cfg.frame, realization.unit, marking.label_start
    fixed = sorted((marking.labels[lab - start][1], lab) for lab in diagram_mod._alpha_labels(spec))
    for idx, lab in fixed:
        if realization.elevators[idx] * frame.scale != frame.xs[lab - start] * unit:
            violations.append(f"fixed {'top' if lab > 0 else 'bottom'} tail {idx} off its Omega line")
    # multiplicity factorization
    if not_trivalent:
        violations.append(not_trivalent)
    else:
        _, _, fins, downs, ups = diagram.floor_data
        expected = math.prod(w * w for _, _, w in fins) * math.prod(w for _, w in downs + ups)
        if mu != expected:
            violations.append(f"multiplicity {mu} != edge product {expected}")
    # round trip; a nonpositive weight, which the diagram's floor data never
    # has, fails _recovers and then the building of the FloorDiagram
    try:
        parts = _decompose(split, d)
        data = diagram_mod._floor_data(parts[0], parts[3])
        recovered = _recovers(data, floor_of, diagram, sizes) or (
            diagram_mod.canonical_key(diagram_mod.FloorDiagram(*parts))
            == diagram_mod.canonical_key(diagram)
        )
    except lattice.TropicoError as exc:
        # a floor with no transverse piece, a piece that is neither an
        # elevator nor a floor direction, or a nonpositive weight
        violations.append(f"curve has no floor decomposition: {exc}")
    else:
        if not recovered:
            violations.append("floor decomposition does not recover the diagram")
    return violations
