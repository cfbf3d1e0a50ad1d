"""The geometric cross-check on plane curves: every marked floor diagram of
a case realized on stretched points and verified, its plane curve of the
case's geometric genus, and the multiplicities of the curves summing to
I^alpha times the count, which is also the number of irreducible curves
that tests/ch_oracle.py finds by the Caporaso-Harris recursion.

    PYTHONPATH=src python tests/geometric_check.py CASE [CASE ...]

A CASE is DEGREE:GENUS:CURVES:SUM[:KEY=N,N...]: plane curves of that degree
and genus, with CURVES marked diagrams whose multiplicities sum to SUM.
The keys dir, a-, a+, b- and b+ give the stretching direction, 0,1 (the
default) or 0,-1, and the tangency type on each side; a side with neither
an a nor a b key meets its edge at one unassigned point, as `tropico
count` assumes.
The first case that fails ends the run with exit status 1.
"""

import sys

import ch_oracle
from tropico.diagram import enumerate_diagrams, enumerate_markings
from tropico.lattice import direction_data, triangle
from tropico.peel import DiagramSpec, count, nseq_Ipow
from tropico.realize import realize_stretched, verify_realization
from tropico.tropical import geometric_genus, tropical_multiplicity

KEYS = ("dir", "a+", "a-", "b+", "b-")


def parse(case):
    """(name, degree, spec, (curves, sum)) of a CASE argument."""
    degree, genus, curves, total, *options = case.split(":")
    given = dict(option.split("=", 1) for option in options)
    if not set(given) <= set(KEYS):
        raise SystemExit(f"{case}: keys {sorted(set(given) - set(KEYS))} are not among {KEYS}")
    seqs = {key: tuple(int(x) for x in value.split(",") if x) for key, value in given.items()}
    polygon, direction = triangle(int(degree)), seqs.get("dir", (0, 1))
    if direction not in ((0, 1), (0, -1)):
        raise SystemExit(f"{case}: the direction is not 0,1 or 0,-1")
    data = direction_data(polygon, direction)
    for side, length in (("-", data.d_minus), ("+", data.d_plus)):
        if f"a{side}" not in seqs and f"b{side}" not in seqs:
            seqs[f"b{side}"] = (length,) if length else ()
    spec = DiagramSpec(polygon, direction, int(genus), seqs.get("a+", ()), seqs.get("a-", ()),
                       seqs.get("b+", ()), seqs.get("b-", ()))
    name = " ".join([f"T{degree} g={genus}", *options])
    return name, int(degree), spec.check(), (int(curves), int(total))


def check(name, degree, spec, want):
    """Realize and verify every marked diagram of spec; SystemExit on the
    first failure."""
    curves = total = 0
    for diag in enumerate_diagrams(spec):
        for marking in enumerate_markings(diag, spec):
            realization, cfg = realize_stretched(diag, marking, spec)
            violations = verify_realization(realization, diag, marking, cfg, spec)
            if violations:
                raise SystemExit(f"{name}: {diag} {marking}: {violations}")
            plane = realization.curve.to_plane_curve(spec.polygon)
            if geometric_genus(plane) != spec.genus:
                raise SystemExit(f"{name}: {diag} {marking}: the plane curve's geometric genus"
                                 f" is not {spec.genus}")
            total += tropical_multiplicity(realization.curve)
            curves += 1
    n = count(spec)
    i_alpha = nseq_Ipow(spec.alpha_minus) * nseq_Ipow(spec.alpha_plus)
    print(f"{name}: {curves} curves, multiplicity sum {total} = {i_alpha} * count {n}")
    if (curves, total) != want or total != i_alpha * n:
        raise SystemExit(f"{name}: expected {want[0]} curves and a sum of {want[1]}"
                         f" = {i_alpha} * count, got count {n}")
    # the horizontal edge is the bottom one along (0, 1), the top one along (0, -1)
    if spec.direction == (0, 1):
        alpha, beta = spec.alpha_minus, spec.beta_minus
    else:
        alpha, beta = spec.alpha_plus, spec.beta_plus
    oracle = ch_oracle.irreducible(degree, spec.genus, alpha, beta)
    if n != oracle:
        raise SystemExit(f"{name}: count {n} != the Caporaso-Harris number {oracle}")


def main(argv):
    cases = [parse(case) for case in argv]
    if not cases:
        raise SystemExit(__doc__)
    for case in cases:
        check(*case)


if __name__ == "__main__":
    main(sys.argv[1:])
