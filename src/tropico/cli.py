"""Command-line front end: polygon reports, counting, diagram listing,
realization, tropicalization, SVG rendering, and the self-check suite.

All results go to stdout as JSON (a bare integer for `count`), diagnostics
to stderr.  A command writes its SVG files before it prints its result, so
stdout holds one JSON document: the result or the error.  Exit codes: 0
success, 1 domain error (with the error name in JSON on stdout), 2
argument or parse error.  A domain error is a lattice.TropicoError, the
base of the library's typed errors, io.InputError for files and option
values that cannot be read, decoded or written among them; a
lattice.InvariantViolation, or any other exception, is a bug and
propagates.  A command imports only the modules it runs, on success and on
error alike.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import io as io_mod
from . import lattice


def _nseq(text):
    from .peel import DiagramError, nseq
    if not text:
        return ()
    try:
        return nseq(int(x) for x in text.split(","))
    except (ValueError, DiagramError) as exc:
        raise io_mod.InputError(f"bad multiplicity sequence {text!r}: {exc}") from exc


def _direction(text):
    try:
        dx, dy = text.split(",")
        return (int(dx), int(dy))
    except ValueError as exc:
        raise io_mod.InputError(f"bad direction {text!r}, expected dx,dy") from exc


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise io_mod.InputError(f"cannot read {path}: {exc}") from exc


def _write_text(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise io_mod.InputError(f"cannot write {path}: {exc}") from exc
    print(f"wrote {path}", file=sys.stderr)


def _spec_from_args(args):
    from .peel import DiagramSpec
    poly = io_mod.polygon_from_json(_load_json(args.polygon))
    d = _direction(args.dir)
    data = lattice.direction_data(poly, d)
    beta_plus = _nseq(args.beta_plus) if args.beta_plus is not None else (
        (data.d_plus,) if data.d_plus else ()
    )
    beta_minus = _nseq(args.beta_minus) if args.beta_minus is not None else (
        (data.d_minus,) if data.d_minus else ()
    )
    spec = DiagramSpec(
        poly,
        d,
        args.genus,
        _nseq(args.alpha_plus),
        _nseq(args.alpha_minus),
        beta_plus,
        beta_minus,
    )
    return spec.check()


def _add_spec_args(sub):
    sub.add_argument("--polygon", required=True, help="polygon JSON file")
    sub.add_argument("--genus", type=int, required=True)
    sub.add_argument("--dir", default="0,1", help="stretching direction dx,dy")
    sub.add_argument("--alpha-plus", dest="alpha_plus", default="")
    sub.add_argument("--alpha-minus", dest="alpha_minus", default="")
    sub.add_argument("--beta-plus", dest="beta_plus", default=None)
    sub.add_argument("--beta-minus", dest="beta_minus", default=None)


def cmd_polygon(args):
    poly = io_mod.polygon_from_json(_load_json(args.file))
    report = io_mod.polygon_report(poly)
    if args.probe_dirs:
        report["transverse_directions"] = [
            list(d) for d in lattice.transverse_directions(poly, args.probe_dirs)
        ]
    print(io_mod.dumps(report))
    return 0


def cmd_count(args):
    from .peel import count
    spec = _spec_from_args(args)
    if not args.explain:
        print(count(spec))
        return 0
    from .diagram import explain
    total, rows = explain(spec)
    print(total)
    print(f"{'diagram':>8} {'classes':>8} {'mult':>6} {'subtotal':>9}", file=sys.stderr)
    for i, (diag, nclasses, mu) in enumerate(rows):
        print(f"{i:>8} {nclasses:>8} {mu:>6} {nclasses * mu:>9}", file=sys.stderr)
    print(f"{'total':>8} {'':>8} {'':>6} {total:>9}", file=sys.stderr)
    return 0


def cmd_diagrams(args):
    from . import diagram as diagram_mod
    spec = _spec_from_args(args)
    out = []
    for diag in diagram_mod.enumerate_diagrams(spec):
        entry = io_mod.diagram_to_json(diag)
        entry["multiplicity"] = diagram_mod.multiplicity(diag, spec)
        if args.markings:
            classes = diagram_mod.enumerate_markings(diag, spec)
            entry["markings"] = [io_mod.marking_to_json(m) for m in classes]
        out.append(entry)
    print(io_mod.dumps(out))
    return 0


def cmd_realize(args):
    from . import render
    from .realize import RealizeError, realize_stretched, verify_realization
    spec = _spec_from_args(args)
    diag = io_mod.diagram_from_json(_load_json(args.diagram))
    marking = io_mod.marking_from_json(_load_json(args.marking), diag)
    realization, cfg = realize_stretched(diag, marking, spec, seed=args.seed)
    violations = verify_realization(realization, diag, marking, cfg, spec)
    if violations:
        raise RealizeError("; ".join(violations))
    curve = realization.curve.to_plane_curve(newton=spec.polygon)
    if args.svg:
        style = render.RenderStyle(anticanonical_frame=args.frame)
        labels = {i: str(i + 1) for i in range(len(cfg.points))}
        svg = render.render_curve_svg(curve, style, cfg.points, cfg.omega_lines, labels)
        _write_text(args.svg, svg)
    print(io_mod.dumps(io_mod.realization_to_json(realization, curve)))
    return 0


def cmd_tropicalize(args):
    from . import render
    from .tropical import corner_locus
    poly = io_mod.polynomial_from_json(_load_json(args.poly))
    curve, subdivision = corner_locus(poly)
    if args.svg:
        style = render.RenderStyle(anticanonical_frame=args.frame)
        _write_text(args.svg, render.render_curve_svg(curve, style))
    if args.svg and args.subdivision:
        root, ext = os.path.splitext(args.svg)
        _write_text(f"{root}-subdivision{ext}", render.render_subdivision_svg(subdivision))
    out = io_mod.curve_to_json(curve)
    if args.subdivision:
        out["subdivision"] = io_mod.subdivision_to_json(subdivision)
    print(io_mod.dumps(out))
    return 0


def cmd_check(args):
    import random
    from . import diagram as diagram_mod, tropical
    from .peel import DiagramSpec, count
    from .realize import realize_stretched, verify_realization
    results = {}

    def record(name, fn):
        try:
            ok = fn()
            results[name] = "ok" if ok else "fail"
        except lattice.TropicoError as exc:
            results[name] = f"error: {type(exc).__name__}: {exc}"

    rng = random.Random(20260809)

    def pick_check():
        return all(
            lattice.random_lattice_polygon(rng).pick_identity() for _ in range(100)
        )

    def boundary_identity():
        # direction_data raises InvariantViolation unless 2 d_height + d+ + d-
        # is the number of boundary points
        for poly in (
            lattice.triangle(3),
            lattice.trapezium(2, 3, 2),
            lattice.diamond(),
            lattice.octic_quadrilateral(),
        ):
            lattice.direction_data(poly, (0, 1))
        return True

    def golden_counts():
        cases = diagram_mod.GOLDEN_CUBIC + diagram_mod.GOLDEN_TORIC
        return all(count(spec) == want for spec, want in cases)

    def balancing_suite():
        for d in (1, 2, 3):
            for _ in range(10):
                poly = tropical.random_polynomial(rng, lattice.triangle(d))
                curve, sub = tropical.corner_locus(poly)
                if not tropical.check_balancing(curve):
                    return False
                if tropical.newton_polygon_of(curve) != poly.newton_polygon():
                    return False
        return True

    def bezout_suite():
        for d in (1, 2, 3):
            for _ in range(4):
                c1, _ = tropical.corner_locus(
                    tropical.random_polynomial(rng, lattice.triangle(d))
                )
                c2, _ = tropical.corner_locus(
                    tropical.random_polynomial(rng, lattice.triangle(d))
                )
                pts, _ = tropical.stable_intersection_generic(c1, c2, seed=rng.randrange(10**6))
                if sum(m for _, m in pts) != d * d:
                    return False
        return True

    def realization_roundtrip():
        spec = DiagramSpec(lattice.triangle(3), (0, 1), 1, (), (), (), (3,))
        for diag in diagram_mod.enumerate_diagrams(spec):
            for marking in diagram_mod.enumerate_markings(diag, spec):
                realization, cfg = realize_stretched(diag, marking, spec)
                if verify_realization(realization, diag, marking, cfg, spec):
                    return False
        return True

    def count_lemmas():
        for d in (1, 2, 3):
            for g in range(triangle_pa(d) + 1):
                spec = DiagramSpec(lattice.triangle(d), (0, 1), g, (), (), (), (d,))
                for diag in diagram_mod.enumerate_diagrams(spec):
                    if not diagram_mod.lemma_1_5_check(diag):
                        return False
                    if not diagram_mod.weighted_count_check(diag, spec):
                        return False
        return True

    def triangle_pa(d):
        return lattice.triangle(d).interior_points()

    record("pick_identity_100_random", pick_check)
    record("boundary_point_partition", boundary_identity)
    record("golden_counts", golden_counts)
    record("counting_lemmas", count_lemmas)
    record("corner_locus_balancing_newton", balancing_suite)
    record("tropical_bezout", bezout_suite)
    record("realization_roundtrip_cubic", realization_roundtrip)

    print(io_mod.dumps(results))
    return 0 if all(v == "ok" for v in results.values()) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tropico",
        description="count curves on toric surfaces via floor diagrams; build and render tropical curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polygon", help="lattice polygon invariants")
    psub = p.add_subparsers(dest="subcommand", required=True)
    pr = psub.add_parser("report", help="invariant report as JSON")
    pr.add_argument("file")
    pr.add_argument("--probe-dirs", type=int, default=0, metavar="BOUND",
                    help="also probe transverse directions up to the bound")
    pr.set_defaults(fn=cmd_polygon)

    c = sub.add_parser("count", help="curve count for a polygon, genus and type")
    _add_spec_args(c)
    c.add_argument("--explain", action="store_true", help="per-diagram table on stderr")
    c.set_defaults(fn=cmd_count)

    dgs = sub.add_parser("diagrams", help="list floor diagrams (and markings)")
    _add_spec_args(dgs)
    dgs.add_argument("--markings", action="store_true")
    dgs.set_defaults(fn=cmd_diagrams)

    r = sub.add_parser("realize", help="tropical curve of a marked diagram")
    _add_spec_args(r)
    r.add_argument("--diagram", required=True, help="diagram JSON file")
    r.add_argument("--marking", required=True, help="marking JSON file")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--svg", default=None)
    r.add_argument("--frame", action="store_true", help="anticanonical frame")
    r.set_defaults(fn=cmd_realize)

    t = sub.add_parser("tropicalize", help="corner locus of a tropical polynomial")
    t.add_argument("--poly", required=True, help="polynomial JSON file")
    t.add_argument("--svg", default=None)
    t.add_argument("--subdivision", action="store_true")
    t.add_argument("--frame", action="store_true")
    t.set_defaults(fn=cmd_tropicalize)

    chk = sub.add_parser("check", help="run the invariant self-check suite")
    chk.set_defaults(fn=cmd_check)
    return parser


def cmd(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except lattice.TropicoError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}))
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(cmd(sys.argv[1:]))


if __name__ == "__main__":
    main()
