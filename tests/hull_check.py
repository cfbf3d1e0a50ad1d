"""The hull walk, the corner locus and stable intersection on T10 and T12,
past the T8 of tier 1, and stable intersection on the benchmark's
tropicalize corpus at seeds 0 to 9, each equal to its reference in
tests/test_tropical.py.

    PYTHONPATH=src python tests/hull_check.py

The benchmark's digests do not cover the intersection points, and its
check is Bezout's total alone, so each coarse/fine pair of its corpus is
checked here, as is the tier-1 copy of that corpus (bench_pairs).  The
first difference ends the run with exit status 1.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

from test_tropical import (
    _locus_outcome, bench_pairs, check_box_filtered_intersection, corner_locus_reference,
    intersection_pairs, planes, upper_cells_brute_force,
)
from tropico.lattice import triangle
from tropico.tropical import TropicalPolynomial, _upper_cells, corner_locus, random_polynomial

rng = random.Random(1012)


def fine(d):
    return TropicalPolynomial.make({
        (i, j): -(i * i + j * j) + Fraction(rng.randint(-10**4, 10**4), 8 * 10**4)
        for i, j in triangle(d).lattice_points()
    })


# the O(n^4) definition, in integers, stops at the first lifted point above
# a plane, so the 91 points of T12 take well under a second
hulls = [(f"T{d} {kind}", poly) for d in (10, 12) for kind, poly in (
    ("coarse", random_polynomial(rng, triangle(d), denom=1)),
    ("fine", fine(d)),
)]
for name, poly in hulls:
    if planes(_upper_cells(poly.terms)[1], poly.terms) != upper_cells_brute_force(poly.terms):
        raise SystemExit(f"{name}: _upper_cells differs from the brute force")
loci = [(f"T{d} {kind} {k}", poly) for d in (10, 12) for k in range(3) for kind, poly in (
    ("coarse", random_polynomial(rng, triangle(d), denom=1)),
    ("random", random_polynomial(rng, triangle(d))),
    ("fine", fine(d)),
)]
for name, poly in loci:
    if _locus_outcome(corner_locus, poly) != _locus_outcome(corner_locus_reference, poly):
        raise SystemExit(f"{name}: corner_locus differs from the reference")
pairs = list(intersection_pairs(rng, (10, 12)))
raised, moved = check_box_filtered_intersection(pairs, 1012)
print(f"{len(hulls)} hulls, {len(loci)} corner loci and {len(pairs)} intersections equal their"
      f" references; {moved} pairs were moved off a contact")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

bench = []
for seed in range(10):
    corpus = [(d, c, f, s) for _, d, c, f, s in workloads.build("tropicalize", seed).pairs]
    if corpus != bench_pairs(seed):
        raise SystemExit(f"seed {seed}: bench_pairs differs from the benchmark's corpus")
    bench += [(d, corner_locus(c)[0], corner_locus(f)[0]) for d, c, f, _ in corpus]
raised, moved = check_box_filtered_intersection(bench, 39)
print(f"{len(bench)} coarse/fine pairs of the tropicalize corpus at seeds 0-9 intersect as the"
      f" reference does; {moved} were moved off a contact")
