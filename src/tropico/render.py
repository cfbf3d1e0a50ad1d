"""Deterministic SVG rendering of plane tropical curves.

The anticanonical frame option draws the Newton polygon, scaled around the
curve, as the boundary of the ambient toric surface: every infinite branch
is clipped where it hits the side dual to its direction, finite parts stay
inside.  Without it, rays are clipped at a plain rectangle.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import Record, det
from .tropical import _integral_frame, _joint_frame


class RenderStyle(Record):
    """Canvas width and height and margin in pixels, and whether the
    anticanonical frame is drawn."""

    width: int = 480
    height: int = 480
    margin: int = 24
    anticanonical_frame: bool = False

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0 or self.margin < 0:
            raise ValueError("render dimensions must be positive")


def _fmt(x):
    return f"{x:.3f}"


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
    """The rectangle drawn around points: their bounding box padded on every
    side by half its larger extent (at least 1) plus 1, in coordinates scaled
    by m (even, so that the padding is an integer)."""
    x0, y0, x1, y1 = _bounds(points)
    pad = max(x1 - x0, y1 - y0, m) // 2 + m
    return [(x0 - pad, y0 - pad), (x1 + pad, y0 - pad), (x1 + pad, y1 + pad), (x0 - pad, y1 + pad)]


def _exit_parameter(base, direction, frame):
    """First exit of the ray base + t * direction from a convex polygon,
    all in integers: t = num / den with den > 0, or None when the ray
    leaves through no side (base outside the polygon)."""
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


def _pixel_map(style, x0, y0, width, height):
    """Map from exact coordinates to pixels that fits the box of the given
    width and height at (x0, y0) into the drawing area.

    The returned function takes the point (x / den, y / den) as integers.
    Its pixel coordinates are int/int true divisions, that is, the
    correctly rounded floats of the exact rational values.
    """
    sw = style.width - 2 * style.margin
    sh = style.height - 2 * style.margin
    # scale sn / sd = min(sw / width, sh / height)
    sn, sd = (sw, width) if sw * height <= sh * width else (sh, height)
    top = style.height - style.margin

    def to_px(x, y, den=1):
        return (
            style.margin + (x - x0 * den) * sn / (sd * den),
            top - (y - y0 * den) * sn / (sd * den),
        )

    return to_px


def render_curve_svg(curve, style=None, points=(), omega_lines=(), labels=None):
    """SVG document for a plane tropical curve.

    points are marked base points; omega_lines are (base point, direction)
    pairs drawn dotted; labels maps point index -> text.  Coordinates are
    Fractions or ints.  Every coordinate is taken to one integer frame,
    times a multiple m of the lcm of the denominators, and mapped to
    pixels from there: the curve's cached frame (curve.frame, which
    to_plane_curve hands down) joined with the frame of the points, the
    Omega-line bases and the drawn polygon, so the vertices are not framed
    again.
    """
    style = style or RenderStyle()
    nv = len(curve.vertices)
    # the box or the polygon encloses the vertices and the marked points, the
    # na anchors; a curve without either is drawn around the origin
    marks = list(points) if points or nv else [(0, 0)]
    na = nv + len(marks)
    extra = marks + [base for base, _ in omega_lines]
    if style.anticanonical_frame:
        frame = _frame_polygon(curve.newton, list(curve.vertices) + marks)
        m, ints = _joint_frame(curve.frame, _integral_frame(extra + frame))
        frame = ints[nv + len(extra):]
    else:
        m, ints = _joint_frame(curve.frame, _integral_frame(extra))
        # doubled, so that the padding _box adds is an integer as well
        m, ints = 2 * m, [(2 * x, 2 * y) for x, y in ints]
        frame = _box(ints[:na], m)
    fx0, fy0, fx1, fy1 = _bounds(frame)
    to_px = _pixel_map(style, fx0, fy0, fx1 - fx0, fy1 - fy0)

    def tip(base, direction):
        # a ray that leaves through no side ends one unit along its direction
        t, den = _exit_parameter(base, direction, frame) or (m, 1)
        return to_px(base[0] * den + t * direction[0], base[1] * den + t * direction[1], den)

    vertex_px = [to_px(x, y) for x, y in ints[:nv]]
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{style.width}"'
        f' height="{style.height}" viewBox="0 0 {style.width} {style.height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    frame_path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (to_px(*p) for p in frame))
    stroke = "#444" if style.anticanonical_frame else "#ccc"
    lines.append(f'<polygon points="{frame_path}" fill="none" stroke="{stroke}"/>')

    for base, (_, direction) in zip(ints[na:], omega_lines):
        ax, ay = tip(base, direction)
        bx, by = tip(base, (-direction[0], -direction[1]))
        lines.append(
            f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}"'
            ' stroke="#999" stroke-dasharray="4 3"/>'
        )

    def edge_line(p, q, weight):
        (px, py), (qx, qy) = p, q
        w = 1.2 + 0.9 * (weight - 1)
        lines.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(py)}" x2="{_fmt(qx)}" y2="{_fmt(qy)}"'
            f' stroke="black" stroke-width="{w:.1f}"/>'
        )
        if weight > 1:
            mx, my = (px + qx) / 2, (py + qy) / 2
            lines.append(f'<circle cx="{_fmt(mx)}" cy="{_fmt(my)}" r="7" fill="white" stroke="black"/>')
            lines.append(
                f'<text x="{_fmt(mx)}" y="{_fmt(my + 3.5)}" font-size="10"'
                f' text-anchor="middle">{weight}</text>'
            )

    for s in curve.segments:
        edge_line(vertex_px[s.a], vertex_px[s.b], s.weight)
    for r in curve.rays:
        edge_line(vertex_px[r.base], tip(ints[r.base], r.direction), r.weight)

    for i, (x, y) in enumerate(ints[nv : nv + len(points)]):
        px, py = to_px(x, y)
        lines.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3.2" fill="black"/>')
        if labels:
            text = labels.get(i)
            if text is not None:
                lines.append(
                    f'<text x="{_fmt(px + 5)}" y="{_fmt(py - 5)}" font-size="10">{text}</text>'
                )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_subdivision_svg(subdivision, style=None):
    """SVG of a dual subdivision: the Newton polygon with its cells."""
    style = style or RenderStyle()
    pts = [v for c in subdivision.cells for v in c.vertices]
    x0, y0, x1, y1 = _bounds(pts)
    to_px = _pixel_map(style, x0, y0, max(x1 - x0, 1), max(y1 - y0, 1))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{style.width}"'
        f' height="{style.height}" viewBox="0 0 {style.width} {style.height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for cell in subdivision.cells:
        path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (to_px(*v) for v in cell.vertices))
        lines.append(f'<polygon points="{path}" fill="none" stroke="black"/>')
    for cell in subdivision.cells:
        for v in cell.lattice_points():
            px, py = to_px(*v)
            lines.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2" fill="#666"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
