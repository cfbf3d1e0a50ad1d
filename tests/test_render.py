import hashlib
import itertools
import math
import random
from fractions import Fraction

from tropico import io, render
from tropico.diagram import enumerate_diagrams, enumerate_markings
from tropico.lattice import LatticePolygon, det, diamond, octic_quadrilateral, triangle
from tropico.peel import DiagramSpec
from tropico.realize import realize_stretched
from tropico.render import (
    RenderStyle,
    _bounds,
    _box_exit,
    _exit_parameter,
    _frame_polygon,
    _pixel_map,
    _sides,
    render_curve_svg,
    render_subdivision_svg,
)
from tropico.tropical import DualSubdivision, TropicalPolynomial, _integral_frame, corner_locus

from test_tropical import bench_pairs


def clip_ray_brute_force(base, direction, frame):
    """First exit point of the ray from a convex frame polygon, in
    Fractions; one unit along the direction when it leaves through no side."""
    best = None
    m = len(frame)
    for i in range(m):
        a, b = frame[i], frame[(i + 1) % m]
        edge = (b[0] - a[0], b[1] - a[1])
        d = det(direction, edge)
        if d == 0:
            continue
        r = (a[0] - base[0], a[1] - base[1])
        t = Fraction(r[0] * edge[1] - r[1] * edge[0], d)
        s = Fraction(r[0] * direction[1] - r[1] * direction[0], d)
        if t > 0 and 0 <= s <= 1:
            if best is None or t < best:
                best = t
    if best is None:
        best = Fraction(1)
    return (base[0] + best * direction[0], base[1] + best * direction[1])


def exit_parameter_reference(base, direction, frame):
    """First exit of the ray base + t * direction from the convex polygon
    frame, in integers, each side's vector and determinant built for the
    ray: t = num / den with den > 0, or None when the ray leaves through no
    side.  The reference for _exit_parameter, which reads sides prepared
    once per drawing, and for _box_exit."""
    best = None
    n = len(frame)
    for i in range(n):
        a, b = frame[i], frame[(i + 1) % n]
        edge = (b[0] - a[0], b[1] - a[1])
        d = det(direction, edge)
        if d == 0:
            continue
        r = (a[0] - base[0], a[1] - base[1])
        t = r[0] * edge[1] - r[1] * edge[0]
        s = r[0] * direction[1] - r[1] * direction[0]
        if d < 0:
            d, t, s = -d, -t, -s
        if t > 0 and 0 <= s <= d and (best is None or t * best[1] < best[0] * d):
            best = (t, d)
    return best


def box_corners(box):
    x0, y0, x1, y1 = box
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


def exit_point(base, direction, frame):
    """_exit_parameter on the integer frame of base and frame, as a point in
    the original coordinates (the parameter scales with the frame), after
    checking it against the reference."""
    m, ints = _integral_frame([base] + list(frame))
    hit = _exit_parameter(ints[0], direction, _sides(ints[1:]))
    assert hit == exit_parameter_reference(ints[0], direction, ints[1:])
    if hit is None:
        t = Fraction(1)
    else:
        assert hit[1] > 0
        t = Fraction(hit[0], hit[1] * m)
    return (base[0] + t * direction[0], base[1] + t * direction[1])


DIRECTIONS = [(x, y) for x in range(-2, 3) for y in range(-2, 3) if math.gcd(x, y) == 1]


def assert_exits_match(base, frame):
    base = tuple(map(Fraction, base))
    frame = [tuple(map(Fraction, p)) for p in frame]
    for u in DIRECTIONS:
        assert exit_point(base, u, frame) == clip_ray_brute_force(base, u, frame), (base, u, frame)


def test_exit_parameter_matches_brute_force_on_lattice_frames():
    box = [(-4, -3), (5, -3), (5, 6), (-4, 6)]
    tri = [(0, 0), (6, 0), (0, 6)]
    hexagon = [(1, 0), (4, 0), (6, 2), (5, 5), (2, 5), (0, 2)]
    # inside, on a side, at a vertex and outside: rays through vertices
    # meet one side with s = 0 and the next with s = 1
    for frame in (box, tri, hexagon):
        for base in itertools.product(range(-5, 8, 2), range(-4, 8, 2)):
            assert_exits_match(base, frame)
        for v in frame:
            assert_exits_match(v, frame)
    assert clip_ray_brute_force((2, 3), (1, 1), box) == (5, 6)
    assert Fraction(*_exit_parameter((2, 3), (1, 1), _sides(box))) == 3
    assert _exit_parameter((9, 9), (1, 0), _sides(box)) is None
    # from inside the rectangle, through the nearer side ahead; at a corner
    # both sides ahead give the same parameter
    bounds = (-4, -3, 5, 6)
    assert box_corners(bounds) == box
    for base in itertools.product(range(-3, 5), range(-2, 6)):
        for u in DIRECTIONS + [(3, -7), (-5, 2)]:
            assert Fraction(*_box_exit(base, u, bounds)) == Fraction(
                *exit_parameter_reference(base, u, box)
            ), (base, u)


def test_exit_parameter_matches_brute_force_on_rational_frames():
    rng = random.Random(8)
    for newton in (triangle(3), diamond(), octic_quadrilateral()):
        for _ in range(6):
            pts = [
                (Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                 Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
                for _ in range(rng.randint(1, 5))
            ]
            frame = _frame_polygon(newton, pts)
            for base in pts + [(Fraction(rng.randint(-99, 99), 7), Fraction(1, 3))]:
                assert_exits_match(base, frame)
            for v in frame:
                assert_exits_match(v, frame)


def test_every_drawn_exit_matches_the_reference(monkeypatch):
    """Every ray and Omega line drawn for the realize corpus, with and
    without the anticanonical frame, and Omega lines whose base lies
    outside the rectangle: _box_exit and _exit_parameter give the
    reference's exit, the latter as the same pair."""
    from test_realize import REALIZE_CORPUS, _marked

    seen = {"box": 0, "sides": 0, "outside": 0}

    def box_exit(base, direction, box):
        hit = _box_exit(base, direction, box)
        want = exit_parameter_reference(base, direction, box_corners(box))
        assert Fraction(*hit) == Fraction(*want), (base, direction, box)
        seen["box"] += 1
        return hit

    def exit_parameter(base, direction, sides):
        hit = _exit_parameter(base, direction, sides)
        assert hit == exit_parameter_reference(base, direction, [a for a, _ in sides])
        seen["sides"] += 1
        seen["outside"] += hit is None
        return hit

    monkeypatch.setattr(render, "_box_exit", box_exit)
    monkeypatch.setattr(render, "_exit_parameter", exit_parameter)
    styles = (RenderStyle(), RenderStyle(anticanonical_frame=True))
    for spec in REALIZE_CORPUS:
        for diag, marking in _marked(spec):
            realization, cfg = realize_stretched(diag, marking, spec, seed=0)
            curve = realization.curve.to_plane_curve(newton=spec.polygon)
            for style in styles:
                render_curve_svg(curve, style, cfg.points, cfg.omega_lines)
    curve, _ = corner_locus(TropicalPolynomial.make({(0, 0): 0, (1, 0): 0, (0, 1): 0}))
    for style in styles:
        render_curve_svg(curve, style, [(Fraction(1, 3), 2)], OUTSIDE_OMEGA)
    assert seen["box"] > 3900 and seen["sides"] > 3900 and seen["outside"] >= 4, seen


# a line whose base lies outside the frame, and one through it
OUTSIDE_OMEGA = [((40, Fraction(7, 2)), (0, 1)), ((1, -1), (1, 2))]


def test_curve_svgs_pinned():
    # sha256 of the SVGs of the T4 g=0 curves with their marked points, as
    # drawn by a renderer that mapped every point through Fractions
    spec = DiagramSpec(triangle(4), (0, 1), 0, (), (), (), (4,))
    digest = hashlib.sha256()
    n = 0
    for diag in enumerate_diagrams(spec):
        for marking in enumerate_markings(diag, spec):
            realization, cfg = realize_stretched(diag, marking, spec, seed=0)
            curve = realization.curve.to_plane_curve(newton=spec.polygon)
            digest.update(render_curve_svg(curve, points=cfg.points).encode())
            n += 1
    assert n == 303
    assert digest.hexdigest() == "f76a9712136d03652ee3a13cc5992811b1336aa1e9a66c81f5930d11a1e25edc"


def test_omega_lines_outside_the_frame_pinned():
    # a line whose base lies outside the frame meets no side and is drawn
    # one unit along its direction; sha256 from the Fraction renderer
    curve, _ = corner_locus(TropicalPolynomial.make({(0, 0): 0, (1, 0): 0, (0, 1): 0}))
    digest = hashlib.sha256()
    for style in (RenderStyle(), RenderStyle(anticanonical_frame=True)):
        svg = render_curve_svg(curve, style, [(Fraction(1, 3), 2)], OUTSIDE_OMEGA, {0: "1"})
        digest.update(svg.encode())
    assert digest.hexdigest() == "e5e71c07291787c05f5ff1854495e4f5d82ea3a1ef930e0f0ef00c001d96fa86"


def tropicalize_corpus(seed):
    """Coarse, fine and sparse polynomials on T1..T6: integer lifts on every
    lattice point, near-concave lifts -(i^2 + j^2) + eps with rational eps,
    and random subsets of the lattice points with rational lifts."""
    rng = random.Random(seed)
    polys = []
    for d in range(1, 7):
        points = triangle(d).lattice_points()
        polys.append(TropicalPolynomial.make({p: rng.randint(-9, 9) for p in points}))
        polys.append(TropicalPolynomial.make(
            {(i, j): -(i * i + j * j) + Fraction(rng.randint(-99, 99), 800) for i, j in points}
        ))
        while True:
            sparse = {p: Fraction(rng.randint(-20, 20), rng.randint(1, 5))
                      for p in rng.sample(points, rng.randint(3, len(points)))}
            poly = TropicalPolynomial.make(sparse)
            if poly.spans_plane():
                polys.append(poly)
                break
    return polys


def test_tropicalize_outputs_pinned():
    # sha256 of the curve and subdivision JSON and SVGs, as written when the
    # curve was derived by solving for each vertex and intersecting every
    # pair of cells
    digest = hashlib.sha256()
    n = 0
    for seed in (0, 1, 2):
        for poly in tropicalize_corpus(seed):
            curve, subdivision = corner_locus(poly)
            for text in (
                io.dumps(io.curve_to_json(curve)),
                io.dumps(io.subdivision_to_json(subdivision)),
                render_curve_svg(curve),
                render_curve_svg(curve, RenderStyle(anticanonical_frame=True)),
                render_subdivision_svg(subdivision),
            ):
                digest.update(text.encode())
            n += 1
    assert n == 54
    assert digest.hexdigest() == "1130ede45e35235acdf7b494e810d28da0c13ebb7ae35e2e77cd568179bcf1ab"


def render_subdivision_svg_reference(subdivision):
    """render_subdivision_svg as it drew before it formatted each point's
    pixel pair once per drawing: every polygon corner and every circle maps
    and formats its point anew."""
    pts = [v for c in subdivision.cells for v in c.vertices]
    x0, y0, x1, y1 = _bounds(pts)
    to_px = _pixel_map(x0, y0, max(x1 - x0, 1), max(y1 - y0, 1))

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="480"'
        ' height="480" viewBox="0 0 480 480">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for cell in subdivision.cells:
        path = " ".join(f"{x:.3f},{y:.3f}" for x, y in (to_px(*v) for v in cell.vertices))
        lines.append(f'<polygon points="{path}" fill="none" stroke="black"/>')
    for cell in subdivision.cells:
        for v in cell.lattice_points():
            px, py = to_px(*v)
            lines.append(f'<circle cx="{px:.3f}" cy="{py:.3f}" r="2" fill="#666"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def test_subdivision_svg_matches_the_reference():
    # every subdivision of the benchmark's tropicalize corpus at seeds 0-9,
    # coarse and fine on T4, T6 and T8; hand-built subdivisions around
    # negative coordinates; and one-cell polygons
    subdivisions = [
        corner_locus(poly)[1]
        for seed in range(10)
        for _, coarse, fine, _ in bench_pairs(seed)
        for poly in (coarse, fine)
    ]
    assert len(subdivisions) == 260
    square = LatticePolygon([(-3, -2), (1, -2), (1, 2), (-3, 2)])
    halves = [LatticePolygon([(-3, -2), (1, -2), (1, 2)]), LatticePolygon([(-3, -2), (1, 2), (-3, 2)])]
    kite = LatticePolygon([(-2, -5), (0, -1), (-1, 0), (-5, -3)])
    fan = [LatticePolygon([(-1, -1), p, q]) for p, q in zip(kite.vertices, kite.vertices[1:] + kite.vertices[:1])]
    subdivisions += [
        DualSubdivision(square, tuple(halves), (((-3, -2), (1, 2)),), ()),
        DualSubdivision(kite, tuple(fan), (), ()),
        DualSubdivision(kite, (kite,), (), ()),
        DualSubdivision(triangle(1), (triangle(1),), (), ()),
        DualSubdivision(triangle(5), (triangle(5),), (), ()),
    ]
    for k, subdivision in enumerate(subdivisions):
        assert render_subdivision_svg(subdivision) == render_subdivision_svg_reference(subdivision), k
