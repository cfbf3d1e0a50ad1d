"""Corpora, passes and correctness checks of the four benchmark workloads.

Every workload is built from ``--seed`` alone:

- count-rational / count-nodal: the seed picks a unimodular move A, and
  every spec (Delta, d) becomes (A Delta, A^-T d).  Heights <d, p> are
  unchanged, so the count and the work are too.
- realize: the seed is the ``stretch_points`` seed.
- tropicalize: the seed drives the polynomial generator.

Expected values come from ``tests/ch_oracle.py`` for plane curves and are
pinned from the seed commit for toric and Hirzebruch polygons.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import ch_oracle
from tropico import diagram, io, lattice, render, tropical

# the package attribute tropico.realize is the function, not the module
realize = importlib.import_module("tropico.realize")

# counts pinned from the seed commit; diamond and octic equal the
# acceptance goldens
PINNED = {
    "diamond g=0": 4,
    "octic g=0": 16,
    "octic g=1": 12,
    "Tz2_3,2 g=0 b+=(2) b-=(2,3)": 10750752,
    "Tz1_3,2 g=1": 13775,
    "Tz1_3,2 g=2": 4235,
}


class Checks:
    """Correctness checks attempted and failed during a run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


@dataclass
class Case:
    """One spec with its expected count."""

    label: str
    spec: diagram.DiagramSpec
    expected: int


@dataclass
class Corpus:
    workload: str
    seed: int
    cases: list = field(default_factory=list)  # Case, for the three spec workloads
    # (label, degree, coarse polynomial, fine polynomial, stable-intersection seed)
    pairs: list = field(default_factory=list)
    cli_spec: Case | None = None  # the spec a count workload runs through the CLI


@dataclass
class PassOutput:
    items: list  # (start, end) perf_counter seconds of each timed item
    json_sha256: str
    svg_sha256: str


# ---------------------------------------------------------------------------
# corpus construction


def _plane(d, g, alpha=(), beta=None):
    beta = (d,) if beta is None else beta
    spec = diagram.DiagramSpec(lattice.triangle(d), (0, 1), g, (), alpha, (), beta)
    label = f"T{d} g={g} a={alpha} b={beta}"
    return Case(label, spec, ch_oracle.irreducible(d, g, tuple(alpha), tuple(beta)))


def _pinned(label, polygon, g, beta_plus=None, beta_minus=None):
    dd = lattice.direction_data(polygon, (0, 1))
    beta_plus = beta_plus if beta_plus is not None else ((dd.d_plus,) if dd.d_plus else ())
    beta_minus = beta_minus if beta_minus is not None else ((dd.d_minus,) if dd.d_minus else ())
    spec = diagram.DiagramSpec(polygon, (0, 1), g, (), (), beta_plus, beta_minus)
    return Case(label, spec, PINNED[label])


def _rational():
    return [
        _plane(3, 0),
        _plane(3, 0, beta=(1, 1)),
        _plane(3, 0, alpha=(0, 1), beta=(1,)),
        _plane(4, 0),
        _plane(4, 0, beta=(0, 2)),
        _plane(4, 0, alpha=(0, 0, 0, 1), beta=()),
        _plane(4, 0, alpha=(2,), beta=(0, 1)),
        _plane(5, 0),
        _pinned("diamond g=0", lattice.diamond(), 0),
        _pinned("octic g=0", lattice.octic_quadrilateral(), 0),
        _pinned("Tz2_3,2 g=0 b+=(2) b-=(2,3)", lattice.trapezium(2, 3, 2), 0, (2,), (2, 3)),
    ]


def _nodal():
    return [
        _plane(4, 1),
        _plane(4, 2),
        _plane(4, 3),
        _plane(5, 1),
        _pinned("octic g=1", lattice.octic_quadrilateral(), 1),
        _pinned("Tz1_3,2 g=1", lattice.trapezium(1, 3, 2), 1),
        _pinned("Tz1_3,2 g=2", lattice.trapezium(1, 3, 2), 2),
    ]


def _realize():
    # T4 g=0 first, then the specs of acceptance criterion 8
    return [
        _plane(4, 0),
        _plane(3, 0),
        _plane(3, 0, beta=(1, 1)),
        _plane(3, 0, alpha=(0, 1), beta=(1,)),
        _plane(3, 1),
        _pinned("diamond g=0", lattice.diamond(), 0),
        _pinned("octic g=1", lattice.octic_quadrilateral(), 1),
        _pinned("octic g=0", lattice.octic_quadrilateral(), 0),
    ]


# the smallest item of each workload, for the self-tests
SMOKE = {
    "count-rational": "T3 g=0 a=() b=(3,)",
    "count-nodal": "octic g=1",
    "realize": "T3 g=1 a=() b=(3,)",
}

SHORT_S = 0.25  # count items shorter than this are timed REPEATS times
REPEATS = 5

# the spec each count workload also runs through the CLI
CLI_SPEC = {
    "count-rational": "T4 g=0 a=() b=(4,)",
    "count-nodal": "T4 g=2 a=() b=(4,)",
}

_MOVES = (((1, 1), (0, 1)), ((1, -1), (0, 1)), ((1, 0), (1, 1)), ((1, 0), (-1, 1)),
          ((0, -1), (1, 0)))


def unimodular(seed):
    """A product of three shears or quarter turns chosen by the seed."""
    rng = random.Random(seed)
    a = ((1, 0), (0, 1))
    for _ in range(3):
        m = rng.choice(_MOVES)
        a = tuple(
            tuple(sum(m[i][k] * a[k][j] for k in range(2)) for j in range(2)) for i in range(2)
        )
    return a


def moved(spec, a):
    """The spec (A Delta, A^-T d) for A in SL2(Z)."""
    (p, q), (r, s) = a
    poly = lattice.LatticePolygon([(p * x + q * y, r * x + s * y) for x, y in spec.polygon.vertices])
    dx, dy = spec.direction
    direction = (s * dx - r * dy, -q * dx + p * dy)
    return diagram.DiagramSpec(
        poly, direction, spec.genus, spec.alpha_plus, spec.alpha_minus,
        spec.beta_plus, spec.beta_minus,
    )


def fine_polynomial(rng, d):
    """Near-concave lift -(i^2 + j^2) + eps on T_d.  The unperturbed lift
    induces the unit-square subdivision; eps (|eps| <= 1/8) splits every
    square, so the regular subdivision is a unimodular triangulation."""
    points = lattice.triangle(d).lattice_points()
    while True:
        eps = {p: Fraction(rng.randint(-10**4, 10**4), 8 * 10**4) for p in points}
        if all(
            eps[(i, j)] + eps[(i + 1, j + 1)] != eps[(i + 1, j)] + eps[(i, j + 1)]
            for i, j in points
            if i + j + 2 <= d
        ):
            return tropical.TropicalPolynomial.make(
                {(i, j): -(i * i + j * j) + e for (i, j), e in eps.items()}
            )


def build(workload, seed, smoke=False):
    """The corpus of a workload: specs with expected counts, or polynomials."""
    corpus = Corpus(workload, seed)
    if workload == "tropicalize":
        rng = random.Random(seed)
        sizes = ((4, 1),) if smoke else ((4, 8), (6, 4), (8, 1))
        for d, k in sizes:
            polygon = lattice.triangle(d)
            # integer coefficients: with random denominators the Fraction
            # arithmetic alone makes the hull's cost vary from seed to seed
            coarse = [tropical.random_polynomial(rng, polygon, denom=1) for _ in range(k)]
            fine = [fine_polynomial(rng, d) for _ in range(k)]
            corpus.pairs.extend(
                (f"T{d} pair {i}", d, c, f, rng.randrange(10**6))
                for i, (c, f) in enumerate(zip(coarse, fine))
            )
        return corpus
    cases = {"count-rational": _rational, "count-nodal": _nodal, "realize": _realize}[workload]()
    if workload != "realize":
        a = unimodular(seed)
        cases = [Case(c.label, moved(c.spec, a), c.expected) for c in cases]
        corpus.cli_spec = next(c for c in cases if c.label == CLI_SPEC[workload])
    if smoke:
        cases = [c for c in cases if c.label == SMOKE[workload]]
    for case in cases:
        case.spec.check()  # computes and caches the direction data
    corpus.cases = cases
    return corpus


# ---------------------------------------------------------------------------
# passes


def _nospan(name):
    return nullcontext()


def run_pass(corpus, checks, span=_nospan):
    """One pass over the corpus; every result is checked.  ``span(name)``
    returns a context manager around each item (a tracer's span, or none)."""
    if corpus.workload == "realize":
        return _realize_pass(corpus, checks, span)
    if corpus.workload == "tropicalize":
        return _tropicalize_pass(corpus, checks, span)
    return _count_pass(corpus, checks, span)


def _item(checks, label, fn):
    """Run one item; an exception counts as a failed check."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - reported, the run goes on
        checks.check(False, f"{label}: {type(exc).__name__}: {exc}")
        return None


def _count_pass(corpus, checks, span):
    items, counts = [], {}
    for case in corpus.cases:
        t0 = perf_counter()
        with span("bench.item"):
            got = _item(checks, case.label, lambda: diagram.count(case.spec))
        items.append((t0, perf_counter()))
        counts[case.label] = got
        if got is not None:
            checks.check(got == case.expected, f"{case.label}: count {got} != {case.expected}")
    digest = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()
    return PassOutput(items, digest, hashlib.sha256().hexdigest())


def repeat_short_counts(corpus, checks, samples):
    """Call ``count`` again on each spec of a count workload whose first
    call took under SHORT_S, until it has REPEATS samples: one call of a
    few milliseconds is too short a sample of its latency.  ``samples[i]``
    lists the (start, end) intervals of case i and gains the new ones."""
    if not corpus.workload.startswith("count"):
        return
    for case, intervals in zip(corpus.cases, samples):
        a, b = intervals[0]
        while b - a < SHORT_S and len(intervals) < REPEATS:
            t0 = perf_counter()
            got = _item(checks, case.label, lambda: diagram.count(case.spec))
            intervals.append((t0, perf_counter()))
            if got is not None:
                checks.check(got == case.expected, f"{case.label}: count {got} != {case.expected}")


def _realize_item(diag, marking, spec, seed):
    realization, cfg = realize.realize_stretched(diag, marking, spec, seed=seed)
    violations = realize.verify_realization(realization, diag, marking, cfg, spec)
    mult = tropical.tropical_multiplicity(realization.curve)
    curve = realization.curve.to_plane_curve(newton=spec.polygon)
    js = io.dumps(io.curve_to_json(curve))
    svg = render.render_curve_svg(curve, points=cfg.points)
    return violations, mult, js, svg


def _realize_pass(corpus, checks, span):
    items = []
    jsh, svgh = hashlib.sha256(), hashlib.sha256()
    for case in corpus.cases:
        spec = case.spec
        total = 0
        for diag in diagram.enumerate_diagrams(spec):
            for marking in diagram.enumerate_markings(diag, spec):
                t0 = perf_counter()
                with span("bench.item"):
                    out = _item(
                        checks, case.label,
                        lambda: _realize_item(diag, marking, spec, corpus.seed),
                    )
                items.append((t0, perf_counter()))
                if out is None:
                    continue
                violations, mult, js, svg = out
                checks.check(not violations, f"{case.label}: violations {violations}")
                total += mult
                jsh.update(js.encode())
                svgh.update(svg.encode())
        ialpha = diagram.nseq_Ipow(spec.alpha_plus) * diagram.nseq_Ipow(spec.alpha_minus)
        checks.check(
            total == ialpha * case.expected,
            f"{case.label}: multiplicity sum {total} != {ialpha} x {case.expected}",
        )
    return PassOutput(items, jsh.hexdigest(), svgh.hexdigest())


def _tropicalize_item(coarse, fine, pair_seed):
    outs = []
    for poly in (coarse, fine):
        curve, subdivision = tropical.corner_locus(poly)
        legendre = tropical.legendre_transform(dict(poly.terms))
        js = io.dumps(io.curve_to_json(curve))
        svg = render.render_subdivision_svg(subdivision)
        outs.append((poly, curve, subdivision, legendre, js, svg))
    points, _ = tropical.stable_intersection_generic(outs[0][1], outs[1][1], seed=pair_seed)
    return outs, points


def _tropicalize_pass(corpus, checks, span):
    items = []
    jsh, svgh = hashlib.sha256(), hashlib.sha256()
    for label, d, coarse, fine, pair_seed in corpus.pairs:
        t0 = perf_counter()
        with span("bench.item"):
            out = _item(checks, label, lambda: _tropicalize_item(coarse, fine, pair_seed))
        items.append((t0, perf_counter()))
        if out is None:
            continue
        outs, points = out
        for kind, (poly, curve, subdivision, legendre, js, svg) in zip(("coarse", "fine"), outs):
            name = f"{label} {kind}"
            checks.check(tropical.check_balancing(curve), f"{name}: unbalanced")
            checks.check(
                tropical.newton_polygon_of(curve) == poly.newton_polygon(),
                f"{name}: Newton polygon does not round-trip",
            )
            checks.check(subdivision.check_tiling(), f"{name}: cells do not tile")
            if kind == "fine":
                checks.check(len(subdivision.cells) == d * d, f"{name}: not unimodular")
            # the transform is max_x (p . x - f(x)); compare at the curve's vertices
            checks.check(
                all(
                    legendre(p) == max(p[0] * x + p[1] * y - v for (x, y), v in poly.terms)
                    for p in curve.vertices
                ),
                f"{name}: Legendre transform disagrees with its definition",
            )
            jsh.update(js.encode())
            svgh.update(svg.encode())
        total = sum(m for _, m in points)
        checks.check(total == d * d, f"{label}: {total} intersection points, Bezout {d * d}")
    return PassOutput(items, jsh.hexdigest(), svgh.hexdigest())


# ---------------------------------------------------------------------------
# the CLI command of each workload


def cli_case(corpus, tmp):
    """Argv of one ``python -m tropico`` command (its input files written
    under ``tmp``), its expected stdout from in-process library calls, and
    the expected bytes of each file it writes (None: compare the
    subprocess's file with the in-process command's)."""
    if corpus.workload == "tropicalize":
        poly = next((fine for _, d, _, fine, _ in corpus.pairs if d == 6), corpus.pairs[0][3])
        path = tmp / "poly.json"
        path.write_text(io.dumps(io.polynomial_to_json(poly)))
        svg = tmp / "curve.svg"
        curve, subdivision = tropical.corner_locus(poly)
        out = io.curve_to_json(curve)
        out["subdivision"] = io.subdivision_to_json(subdivision)
        argv = ["tropicalize", "--poly", str(path), "--subdivision", "--svg", str(svg)]
        files = {
            svg: render.render_curve_svg(curve, render.RenderStyle()),
            tmp / "curve-subdivision.svg": render.render_subdivision_svg(subdivision),
        }
        return argv, io.dumps(out) + "\n", files
    if corpus.workload == "realize":
        spec = corpus.cases[0].spec
        items = [
            (diag, marking)
            for diag in diagram.enumerate_diagrams(spec)
            for marking in diagram.enumerate_markings(diag, spec)
        ]
        diag, marking = items[len(items) // 2]
        realization, _ = realize.realize_stretched(diag, marking, spec, seed=corpus.seed)
        (tmp / "diagram.json").write_text(io.dumps(io.diagram_to_json(diag)))
        (tmp / "marking.json").write_text(io.dumps(io.marking_to_json(marking)))
        argv = ["realize"] + _spec_argv(spec, tmp) + [
            "--diagram", str(tmp / "diagram.json"), "--marking", str(tmp / "marking.json"),
            f"--seed={corpus.seed}", "--svg", str(tmp / "curve.svg"),
        ]
        return argv, io.dumps(io.realization_to_json(realization)) + "\n", {tmp / "curve.svg": None}
    case = corpus.cli_spec
    return ["count"] + _spec_argv(case.spec, tmp), f"{case.expected}\n", {}


def _spec_argv(spec, tmp):
    path = tmp / "polygon.json"
    path.write_text(io.dumps(io.polygon_to_json(spec.polygon)))
    # --flag=value, since a value such as -1,1 would read as an option
    argv = ["--polygon", str(path), f"--genus={spec.genus}",
            f"--dir={','.join(map(str, spec.direction))}"]
    for flag, seq in (("--alpha-plus", spec.alpha_plus), ("--alpha-minus", spec.alpha_minus),
                      ("--beta-plus", spec.beta_plus), ("--beta-minus", spec.beta_minus)):
        argv.append(f"{flag}={','.join(map(str, seq))}")
    return argv
