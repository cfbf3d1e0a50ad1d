"""Deterministic SVG rendering of plane tropical curves and subdivisions.

Every drawing is on one canvas of WIDTH by HEIGHT pixels, MARGIN of them
kept clear on each side.  The anticanonical frame option draws the Newton
polygon, scaled around the curve, as the boundary of the ambient toric
surface: every infinite branch is clipped where it hits the side dual to
its direction, finite parts stay inside.  Without it, rays are clipped at a
plain rectangle.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import Record
from .tropical import _integral_frame, _joint_frame


WIDTH = HEIGHT = 480
MARGIN = 24
# the opening of every SVG document drawn
_PREAMBLE = (
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}"'
    f' height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
    '<rect width="100%" height="100%" fill="white"/>',
)


class RenderStyle(Record):
    """Whether a curve is drawn in its anticanonical frame."""

    anticanonical_frame: bool = False


def _bounds(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return min(xs), min(ys), max(xs), max(ys)


def _frame_polygon(newton, points):
    """Newton polygon scaled about its centroid to strictly enclose points."""
    n = len(newton.vertices)
    cx = Fraction(sum(v[0] for v in newton.vertices), n)
    cy = Fraction(sum(v[1] for v in newton.vertices), n)
    lam = Fraction(1)
    edges = newton.edges()
    for p in points:
        for a, b in edges:
            nx, ny = -(b[1] - a[1]), (b[0] - a[0])  # inward normal
            num = nx * (p[0] - cx) + ny * (p[1] - cy)
            den = nx * (a[0] - cx) + ny * (a[1] - cy)
            if den < 0:
                num, den = -num, -den
            if num < 0:
                continue
            needed = Fraction(num, den) if den else Fraction(0)
            lam = max(lam, needed)
    lam = lam * Fraction(3, 2) + 1
    return [(cx + lam * (v[0] - cx), cy + lam * (v[1] - cy)) for v in newton.vertices]


def _box(points, m):
    """The rectangle (x0, y0, x1, y1) drawn around points: their bounding
    box padded on every side by half its larger extent (at least 1) plus 1,
    in coordinates scaled by m (even, so that the padding is an integer)."""
    x0, y0, x1, y1 = _bounds(points)
    pad = max(x1 - x0, y1 - y0, m) // 2 + m
    return x0 - pad, y0 - pad, x1 + pad, y1 + pad


def _sides(polygon):
    """Each side of a polygon as (a, b - a), for its corners a, b in order."""
    return [(a, (b[0] - a[0], b[1] - a[1])) for a, b in zip(polygon, polygon[1:] + polygon[:1])]


def _exit_parameter(base, direction, sides):
    """First exit of the ray base + t * direction from a convex polygon,
    given by its _sides, all in integers: t = num / den with den > 0, or
    None when the ray leaves through no side (base outside the polygon)."""
    best = None
    dx, dy = direction
    for (ax, ay), (ex, ey) in sides:
        d = dx * ey - dy * ex
        if d == 0:
            continue
        rx, ry = ax - base[0], ay - base[1]
        t = rx * ey - ry * ex
        s = rx * dy - ry * dx
        if d < 0:
            d, t, s = -d, -t, -s
        if t > 0 and 0 <= s <= d and (best is None or t * best[1] < best[0] * d):
            best = (t, d)
    return best


def _box_exit(base, direction, box):
    """_exit_parameter of a ray that starts strictly inside the rectangle
    box = (x0, y0, x1, y1): it leaves through the nearer of the sides its
    direction points to, at t = num / den with den > 0."""
    (bx, by), (dx, dy) = base, direction
    x0, y0, x1, y1 = box
    tx = (x1 - bx, dx) if dx > 0 else (bx - x0, -dx) if dx < 0 else None
    ty = (y1 - by, dy) if dy > 0 else (by - y0, -dy) if dy < 0 else None
    if ty is None or tx is not None and tx[0] * ty[1] <= ty[0] * tx[1]:
        return tx
    return ty


def _pixel_map(x0, y0, width, height):
    """Map from exact coordinates to pixels that fits the box of the given
    width and height at (x0, y0) into the canvas, inside its margin.

    The returned function takes the point (x / den, y / den) as integers.
    Its pixel coordinates are int/int true divisions, that is, the
    correctly rounded floats of the exact rational values.
    """
    sw = WIDTH - 2 * MARGIN
    sh = HEIGHT - 2 * MARGIN
    # scale sn / sd = min(sw / width, sh / height)
    sn, sd = (sw, width) if sw * height <= sh * width else (sh, height)
    top = HEIGHT - MARGIN

    def to_px(x, y, den=1):
        return (
            MARGIN + (x - x0 * den) * sn / (sd * den),
            top - (y - y0 * den) * sn / (sd * den),
        )

    return to_px


# the last tuple of marked points drawn and its _integral_frame: the curves
# of a configuration are drawn with its one points tuple, framed once for
# all of them; holding the tuple keeps its id from being reused
_last_marks = ((), (1, []))


def _marks_frame(points):
    """_integral_frame of the marked points, reused while they are the
    tuple of the last drawing: a tuple is immutable, so the same object
    has the same frame."""
    global _last_marks
    if type(points) is not tuple:
        return _integral_frame(points)
    if points is not _last_marks[0]:
        _last_marks = points, _integral_frame(points)
    return _last_marks[1]


def render_curve_svg(curve, style=None, points=(), omega_lines=(), labels=None):
    """SVG document for a plane tropical curve.

    points are marked base points; omega_lines are (base point, direction)
    pairs drawn dotted; labels maps point index -> text.  Coordinates are
    Fractions or ints.  Every coordinate is taken to one integer frame,
    times a multiple m of the lcm of the denominators, and mapped to
    pixels from there: the curve's cached frame (curve.frame, which
    to_plane_curve hands down) joined with the frame of the points (framed
    once per tuple of points, _marks_frame), of the Omega-line bases and
    of the drawn polygon, so the vertices are not framed again.

    Every ray starts at a vertex, inside the frame: on the default
    rectangle it leaves through the nearer of the two sides its direction
    points to (_box_exit).  On the anticanonical polygon, and for an Omega
    line, whose base may lie outside the rectangle, every side is tried
    (_exit_parameter), each side prepared once per drawing (_sides).
    """
    style = style or RenderStyle()
    nv = len(curve.vertices)
    # the box or the polygon encloses the vertices and the marked points, the
    # na anchors; a curve without either is drawn around the origin
    marks = points if points or nv else ((0, 0),)
    bases = [base for base, _ in omega_lines]
    na = nv + len(marks)
    frames = [curve.frame, _marks_frame(marks)]
    if style.anticanonical_frame:
        frames.append(_integral_frame(bases + _frame_polygon(curve.newton, [*curve.vertices, *marks])))
        m, ints = _joint_frame(*frames)
        frame = ints[na + len(bases):]
        fx0, fy0, fx1, fy1 = _bounds(frame)
    else:
        if bases:
            frames.append(_integral_frame(bases))
        m, ints = _joint_frame(*frames)
        # doubled, so that the padding _box adds is an integer as well
        m, ints = 2 * m, [(2 * x, 2 * y) for x, y in ints]
        fx0, fy0, fx1, fy1 = box = _box(ints[:na], m)
        frame = [(fx0, fy0), (fx1, fy0), (fx1, fy1), (fx0, fy1)]
    sides = _sides(frame)
    ray_exit, ray_frame = (_exit_parameter, sides) if style.anticanonical_frame else (_box_exit, box)
    to_px = _pixel_map(fx0, fy0, fx1 - fx0, fy1 - fy0)

    def tip(base, direction, first_exit, shape):
        # a ray that leaves through no side ends one unit along its direction
        t, den = first_exit(base, direction, shape) or (m, 1)
        return to_px(base[0] * den + t * direction[0], base[1] * den + t * direction[1], den)

    vertex_px = [to_px(x, y) for x, y in ints[:nv]]
    lines = list(_PREAMBLE)
    frame_path = " ".join(f"{x:.3f},{y:.3f}" for x, y in (to_px(*p) for p in frame))
    stroke = "#444" if style.anticanonical_frame else "#ccc"
    lines.append(f'<polygon points="{frame_path}" fill="none" stroke="{stroke}"/>')

    for base, (_, direction) in zip(ints[na:], omega_lines):
        ax, ay = tip(base, direction, _exit_parameter, sides)
        bx, by = tip(base, (-direction[0], -direction[1]), _exit_parameter, sides)
        lines.append(
            f'<line x1="{ax:.3f}" y1="{ay:.3f}" x2="{bx:.3f}" y2="{by:.3f}"'
            ' stroke="#999" stroke-dasharray="4 3"/>'
        )

    def edge_line(p, q, weight):
        (px, py), (qx, qy) = p, q
        w = 1.2 + 0.9 * (weight - 1)
        lines.append(
            f'<line x1="{px:.3f}" y1="{py:.3f}" x2="{qx:.3f}" y2="{qy:.3f}"'
            f' stroke="black" stroke-width="{w:.1f}"/>'
        )
        if weight > 1:
            mx, my = (px + qx) / 2, (py + qy) / 2
            lines.append(f'<circle cx="{mx:.3f}" cy="{my:.3f}" r="7" fill="white" stroke="black"/>')
            lines.append(
                f'<text x="{mx:.3f}" y="{my + 3.5:.3f}" font-size="10"'
                f' text-anchor="middle">{weight}</text>'
            )

    for s in curve.segments:
        edge_line(vertex_px[s.a], vertex_px[s.b], s.weight)
    for r in curve.rays:
        edge_line(vertex_px[r.base], tip(ints[r.base], r.direction, ray_exit, ray_frame), r.weight)

    for i, (x, y) in enumerate(ints[nv : nv + len(points)]):
        px, py = to_px(x, y)
        lines.append(f'<circle cx="{px:.3f}" cy="{py:.3f}" r="3.2" fill="black"/>')
        if labels:
            text = labels.get(i)
            if text is not None:
                lines.append(f'<text x="{px + 5:.3f}" y="{py - 5:.3f}" font-size="10">{text}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_subdivision_svg(subdivision):
    """SVG of a dual subdivision: its cells and a circle per lattice point
    of each cell, each point's pixel pair formatted once per drawing."""
    pts = [v for c in subdivision.cells for v in c.vertices]
    x0, y0, x1, y1 = _bounds(pts)
    to_px = _pixel_map(x0, y0, max(x1 - x0, 1), max(y1 - y0, 1))
    cell_points = [cell.lattice_points() for cell in subdivision.cells]
    corner, circle = {}, {}  # lattice point -> its polygon corner, its circle
    for points in cell_points:
        for v in points:
            if v not in corner:
                x, y = (f"{c:.3f}" for c in to_px(*v))
                corner[v] = f"{x},{y}"
                circle[v] = f'<circle cx="{x}" cy="{y}" r="2" fill="#666"/>'

    lines = list(_PREAMBLE)
    for cell in subdivision.cells:
        path = " ".join([corner[v] for v in cell.vertices])
        lines.append(f'<polygon points="{path}" fill="none" stroke="black"/>')
    lines += [circle[v] for points in cell_points for v in points]
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
