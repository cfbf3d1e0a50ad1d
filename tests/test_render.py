import hashlib
import itertools
import math
import random
from fractions import Fraction

from tropico import io
from tropico.diagram import enumerate_diagrams, enumerate_markings
from tropico.lattice import det, diamond, octic_quadrilateral, triangle
from tropico.peel import DiagramSpec
from tropico.realize import realize_stretched
from tropico.render import (
    RenderStyle,
    _exit_parameter,
    _frame_polygon,
    render_curve_svg,
    render_subdivision_svg,
)
from tropico.tropical import TropicalPolynomial, _integral_frame, corner_locus


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


def exit_point(base, direction, frame):
    """_exit_parameter on the integer frame of base and frame, as a point in
    the original coordinates (the parameter scales with the frame)."""
    m, ints = _integral_frame([base] + list(frame))
    hit = _exit_parameter(ints[0], direction, ints[1:])
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
    assert Fraction(*_exit_parameter((2, 3), (1, 1), box)) == 3
    assert _exit_parameter((9, 9), (1, 0), box) is None


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
    omega = [((40, Fraction(7, 2)), (0, 1)), ((1, -1), (1, 2))]
    digest = hashlib.sha256()
    for style in (RenderStyle(), RenderStyle(anticanonical_frame=True)):
        svg = render_curve_svg(curve, style, [(Fraction(1, 3), 2)], omega, {0: "1"})
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
