"""Cross-validation sweeps: the diagram pipeline against the recursion
oracle over all boundary types, and the two in-package pipelines against
each other on randomly drawn transverse polygons."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import ch_oracle
from tropico import diagram as diagram_mod
from tropico.diagram import (
    canonical_key,
    enumerate_diagrams,
    enumerate_markings,
    explain,
    multiplicity,
)
from tropico.lattice import (
    LatticePolygon,
    component_count,
    diamond,
    direction_data,
    octic_quadrilateral,
    random_lattice_polygon,
    transverse_directions,
    trapezium,
    triangle,
)
from tropico.peel import DiagramSpec, count, nseq_Ipow
from tropico.realize import realize_stretched, verify_realization
from tropico.tropical import (
    TropicalPolynomial,
    corner_locus,
    tropical_multiplicity,
)

from peel_reference import peel_count_reference
from test_diagram import poset


def _sequences_with_I(total):
    if total == 0:
        return [()]
    out = []

    def rec(pos, remaining, acc):
        order = pos + 1
        if remaining == 0:
            trimmed = list(acc)
            while trimmed and trimmed[-1] == 0:
                trimmed.pop()
            out.append(tuple(trimmed))
            return
        if order > remaining:
            return
        for cnt in range(remaining // order + 1):
            rec(pos + 1, remaining - cnt * order, acc + [cnt])

    rec(0, total, [])
    return out


def _boundary_types(d):
    """Every boundary type (alpha, beta) of one edge: I alpha + I beta = d."""
    return [
        (alpha, beta)
        for ia in range(d + 1)
        for alpha in _sequences_with_I(ia)
        for beta in _sequences_with_I(d - ia)
    ]


def test_all_cubic_types_match_oracle():
    d = 3
    for g in (0, 1):
        for alpha, beta in _boundary_types(d):
            spec = DiagramSpec(triangle(d), (0, 1), g, (), alpha, (), beta)
            got = count(spec)
            want = ch_oracle.irreducible(d, g, alpha, beta)
            assert got == want, (g, alpha, beta, got, want)


def test_sample_quartic_types_match_oracle():
    cases = [
        (0, (1,), (3,)),
        (0, (0, 0, 1), (1,)),
        (0, (2,), (0, 1)),
        (1, (2,), (2,)),
        (2, (), (2, 1)),
        (3, (4,), ()),
    ]
    for g, alpha, beta in cases:
        spec = DiagramSpec(triangle(4), (0, 1), g, (), alpha, (), beta)
        assert count(spec) == ch_oracle.irreducible(4, g, alpha, beta)


def test_quintic_counts_match_oracle():
    for g in range(7):
        spec = DiagramSpec(triangle(5), (0, 1), g, (), (), (), (5,))
        assert count(spec) == ch_oracle.irreducible(5, g, (), (5,))


def test_sextic_high_genus_counts_match_oracle():
    for g in range(5, 11):
        spec = DiagramSpec(triangle(6), (0, 1), g, (), (), (), (6,))
        assert count(spec) == ch_oracle.irreducible(6, g, (), (6,))


def test_classical_counts():
    # frozen values from the enumerative-geometry literature
    from tropico.lattice import LatticePolygon

    # rational plane quintics through 14 points
    assert count(DiagramSpec(triangle(5), (0, 1), 0, (), (), (), (5,))) == 87304
    # products of projective lines: bidegree (a, b) counts
    r11 = LatticePolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert count(DiagramSpec(r11, (0, 1), 0, (), (), (1,), (1,))) == 1
    r22 = LatticePolygon([(0, 0), (2, 0), (2, 2), (0, 2)])
    assert count(DiagramSpec(r22, (0, 1), 0, (), (), (2,), (2,))) == 12
    assert count(DiagramSpec(r22, (0, 1), 1, (), (), (2,), (2,))) == 1
    r21 = LatticePolygon([(0, 0), (2, 0), (2, 1), (0, 1)])
    assert count(DiagramSpec(r21, (0, 1), 0, (), (), (2,), (2,))) == 1


def _kleiman_piene(d, delta):
    """N^{d,delta}: the number of delta-nodal plane curves of degree d through
    d(d+3)/2 - delta general points, for d >= delta + 2 (Kleiman-Piene)."""
    return {
        1: 3 * (d - 1) ** 2,
        2: Fraction(3, 2) * (d - 1) * (d - 2) * (3 * d * d - 3 * d - 11),
        3: Fraction(9 * d**6 - 54 * d**5 + 9 * d**4 + 423 * d**3 - 458 * d**2 - 829 * d + 1050, 2),
    }[delta]


def test_low_cogenus_counts_are_the_kleiman_piene_polynomials():
    # at cogenus delta <= d - 2 every delta-nodal curve is irreducible, so
    # the count of T_d at genus (d-1)(d-2)/2 - delta is N^{d,delta}
    for d in range(3, 13):
        for delta in range(1, min(3, d - 2) + 1):
            spec = DiagramSpec(triangle(d), (0, 1), (d - 1) * (d - 2) // 2 - delta, (), (), (), (d,))
            assert count(spec) == _kleiman_piene(d, delta), (d, delta)


def _moved(spec, a):
    """The spec (A Delta, A^-T d) for a unimodular A: the same count."""
    (p, q), (r, e) = a
    det = p * e - q * r
    poly = LatticePolygon([(p * x + q * y, r * x + e * y) for x, y in spec.polygon.vertices])
    dx, dy = spec.direction
    direction = ((e * dx - r * dy) * det, (p * dy - q * dx) * det)
    return DiagramSpec(
        poly, direction, spec.genus, spec.alpha_plus, spec.alpha_minus,
        spec.beta_plus, spec.beta_minus,
    )


def test_floor_peeling_matches_the_enumerator():
    # explain(spec) raises unless the listed diagrams sum to the peeled
    # total; each spec also runs under a shear and a quarter turn,
    # both of which move the direction (0, 1)
    specs = [
        DiagramSpec(triangle(d), (0, 1), g, (), (), (), (d,))
        for d in (3, 4, 5)
        for g in range(triangle(d).interior_points() + 1)
    ]
    specs += [
        DiagramSpec(triangle(d), (0, 1), g, (), alpha, (), beta)
        for d in (3, 4)
        for g in range(triangle(d).interior_points() + 1)
        for alpha, beta in _boundary_types(d)
    ]
    specs += [DiagramSpec(diamond(), (0, 1), g) for g in (0, 1)]
    specs += [DiagramSpec(octic_quadrilateral(), (0, 1), g) for g in (0, 1, 2)]
    specs += [DiagramSpec(trapezium(1, 3, 2), (0, 1), g, (), (), (2,), (5,)) for g in range(6)]
    specs += [DiagramSpec(trapezium(2, 3, 2), (0, 1), g, (), (), (2,), (8,)) for g in range(9)]
    for a, b, g in ((1, 1, 0), (2, 2, 0), (2, 2, 1), (2, 1, 0)):
        rect = LatticePolygon([(0, 0), (a, 0), (a, b), (0, b)])
        specs.append(DiagramSpec(rect, (0, 1), g, (), (), (a,), (a,)))
    for spec in dict.fromkeys(specs):
        total, _ = explain(spec)
        for a in (((2, 1), (1, 1)), ((0, -1), (1, 0))):
            moved = _moved(spec, a)
            assert moved.direction != spec.direction
            assert explain(moved)[0] == total, (spec, a)
    # fixed and mobile tangencies on both edges at once: every boundary type
    # of the bottom and the top edge of Tz^1_{2,2}, at every genus
    tz = trapezium(1, 2, 2)
    for g in range(tz.interior_points() + 1):
        for alpha_minus, beta_minus in _boundary_types(4):
            for alpha_plus, beta_plus in _boundary_types(2):
                explain(DiagramSpec(tz, (0, 1), g, alpha_plus, alpha_minus, beta_plus, beta_minus))


def test_floor_peeling_matches_the_enumerator_on_sextics():
    # T6 at the genera where listing is quick (g=1..5 take seconds each)
    for g in (0, 6, 7, 8, 9, 10):
        spec = DiagramSpec(triangle(6), (0, 1), g, (), (), (), (6,))
        total, _ = explain(spec)
        assert total == ch_oracle.irreducible(6, g, (), (6,)), g


def test_floor_peeling_matches_oracle():
    for d in (7, 8, 9, 10):
        spec = DiagramSpec(triangle(d), (0, 1), 0, (), (), (), (d,))
        assert count(spec) == ch_oracle.irreducible(d, 0, (), (d,)), d
    for g in range(triangle(7).interior_points() + 1):
        spec = DiagramSpec(triangle(7), (0, 1), g, (), (), (), (7,))
        assert count(spec) == ch_oracle.irreducible(7, g, (), (7,)), g
    # every boundary type of T4 and T5 on the bottom edge, and on the top
    # edge of the reflected triangle
    for d in (4, 5):
        flipped = LatticePolygon([(0, 0), (d, 0), (0, -d)])
        for g in range(triangle(d).interior_points() + 1):
            for alpha, beta in _boundary_types(d):
                want = ch_oracle.irreducible(d, g, alpha, beta)
                assert count(DiagramSpec(triangle(d), (0, 1), g, (), alpha, (), beta)) == want
                assert count(DiagramSpec(flipped, (0, 1), g, alpha, (), beta, ())) == want



TWELVE_GON = LatticePolygon([
    (0, 0), (3, 0), (5, 1), (6, 2), (6, 3), (5, 4), (3, 5), (1, 5), (-1, 4), (-2, 3), (-2, 2),
    (-1, 1),
])
# where neither ch_oracle nor the enumerator reaches: T8-T10 from genus 0
# to the top, the 12-gon with five floors of distinct thetas, and Tz^1_{6,6}
# with its long top edge; the reference takes 1-2.5 s on each spec of the
# last two, so tier 1 runs the 12-gon at genus 0 and the rest is a CI step
# (`python tests/peel_reference.py`)
REFERENCE_CASES = [
    (triangle(d), g) for d, gs in ((8, (0, 9, 21)), (9, (3, 17, 28)), (10, (0, 12, 36))) for g in gs
] + [(TWELVE_GON, 0)]
SLOW_REFERENCE_CASES = [(TWELVE_GON, 1), (TWELVE_GON, 2)] + [(trapezium(1, 6, 6), g) for g in range(4)]

def mismatches_with_the_peeling_reference(cases):
    """The cases whose count, with simple tangencies on both edges, differs
    from `peel_count_reference`, alone or under a unimodular move."""
    out = []
    for poly, g in cases:
        dd = direction_data(poly, (0, 1))
        spec = DiagramSpec(poly, (0, 1), g, (), (), (dd.d_plus,) if dd.d_plus else (), (dd.d_minus,))
        want = peel_count_reference(spec)
        got = (count(spec), count(_moved(spec, ((1, 1), (-1, 0)))))
        if got != (want, want):
            out.append((poly, g, got, want))
    return out


def test_count_matches_the_peeling_reference():
    assert mismatches_with_the_peeling_reference(REFERENCE_CASES) == []
    # fixed and mobile tangencies of several orders on both edges
    tz = trapezium(1, 3, 3)
    for g in (0, 2, 4):
        spec = DiagramSpec(tz, (0, 1), g, (2,), (0, 1), (1,), (1, 0, 1))
        assert count(spec) == peel_count_reference(spec), g

def test_count_invariant_under_polygon_presentation():
    base = DiagramSpec(triangle(3), (0, 1), 0, (), (), (), (3,))
    moved = DiagramSpec(triangle(3).translate((5, -2)), (0, 1), 0, (), (), (), (3,))
    rolled = DiagramSpec(
        type(triangle(3))([(0, 3), (0, 0), (3, 0)]), (0, 1), 0, (), (), (), (3,)
    )
    assert count(base) == count(moved) == count(rolled) == 12


# (polygon, genus, count) with simple tangencies along the top and bottom edges
METAMORPHIC = [
    (triangle(3), 0, 12),
    (triangle(3), 1, 1),
    (diamond(), 0, 4),
    (diamond(), 1, 1),
    (octic_quadrilateral(), 0, 16),
    (octic_quadrilateral(), 1, 12),
    (triangle(4), 1, 225),
]
# plane quintics and sextics at every genus, against the oracle, and the
# Hirzebruch trapezium Tz^1_{3,3} at every genus, pinned
METAMORPHIC += [(triangle(d), g, ch_oracle.irreducible(d, g, (), (d,)))
                for d in (5, 6) for g in range(ch_oracle.gmax(d) + 1)]
METAMORPHIC += [(trapezium(1, 3, 3), g, n)
                for g, n in enumerate((401172, 509495, 281652, 82360, 13387, 1200, 55, 1))]
# rows of unimodular matrices A: two shears, a quarter turn, a reflection
UNIMODULAR = [((1, 1), (0, 1)), ((2, 1), (1, 1)), ((0, -1), (1, 0)), ((1, 0), (0, -1))]


def _simple_tangency_count(poly, d, g):
    dd = direction_data(poly, d)
    return count(DiagramSpec(poly, d, g, (), (), (dd.d_plus,), (dd.d_minus,)))


def test_count_invariant_under_direction_and_unimodular_moves():
    # (poly, d) -> (A poly, A^-T d) keeps every height <d, p>
    for poly, g, want in METAMORPHIC:
        directions = transverse_directions(poly, 2)
        assert len(directions) > 1
        for d in directions:
            assert _simple_tangency_count(poly, d, g) == want, (poly, g, d)
        for (a, b), (c, e) in UNIMODULAR:
            det = a * e - b * c
            moved = LatticePolygon([(a * x + b * y, c * x + e * y) for x, y in poly.vertices])
            for dx, dy in directions:
                moved_d = ((e * dx - c * dy) * det, (a * dy - b * dx) * det)
                assert _simple_tangency_count(moved, moved_d, g) == want, (moved, g, moved_d)


def test_diagram_relabeling_preserves_canonical_key():
    spec = DiagramSpec(triangle(3), (0, 1), 1, (), (), (), (3,))
    diag = enumerate_diagrams(spec)[0]
    # relabel all vertices by an arbitrary injection
    remap = {v: v + 10 for v in range(diag.vertex_count())}
    from tropico.diagram import FloorDiagram

    relabeled = FloorDiagram(
        tuple((remap[f], th) for f, th in diag.floors),
        tuple(remap[v] for v in diag.inf_minus),
        tuple(remap[v] for v in diag.inf_plus),
        tuple((remap[s], remap[t], w) for s, t, w in diag.edges),
    )
    assert canonical_key(relabeled) == canonical_key(diag)


def test_pipelines_agree_on_random_transverse_polygons():
    rng = random.Random(424242)
    tested = 0
    while tested < 3:
        poly = random_lattice_polygon(rng, max_coord=4, max_points=5)
        dirs = [
            dvec
            for dvec in transverse_directions(poly, 1)
            if dvec[1] > 0 or (dvec[1] == 0 and dvec[0] > 0)
        ]
        if not dirs:
            continue
        dvec = dirs[0]
        from tropico.lattice import direction_data

        dd = direction_data(poly, dvec)
        if dd.d_height > 3 or poly.boundary_points() > 8:
            continue
        for g in range(min(poly.interior_points(), 1) + 1):
            spec = DiagramSpec(
                poly,
                dvec,
                g,
                (),
                (),
                (dd.d_plus,) if dd.d_plus else (),
                (dd.d_minus,) if dd.d_minus else (),
            )
            expected = count(spec)
            total = 0
            for diag in enumerate_diagrams(spec):
                for marking in enumerate_markings(diag, spec):
                    realization, cfg = realize_stretched(diag, marking, spec, seed=3)
                    assert not verify_realization(realization, diag, marking, cfg, spec)
                    total += tropical_multiplicity(realization.curve)
            assert total == expected, (poly.vertices, dvec, g, total, expected)
        tested += 1


def test_realization_count_independent_of_seed():
    spec = DiagramSpec(triangle(3), (0, 1), 0, (), (), (), (3,))
    sums = []
    for seed in (0, 1, 17):
        total = 0
        for diag in enumerate_diagrams(spec):
            for marking in enumerate_markings(diag, spec):
                realization, cfg = realize_stretched(diag, marking, spec, seed=seed)
                assert not verify_realization(realization, diag, marking, cfg, spec)
                total += tropical_multiplicity(realization.curve)
        sums.append(total)
    assert sums == [12, 12, 12]


def test_shipped_balanced_fixtures_come_from_polynomials():
    # the weight-3 scaled line and the X-shaped weight-2 curve are corner
    # loci of explicit polynomials, up to translation
    from tropico.tropical import newton_polygon_of, check_balancing

    scaled, _ = corner_locus(
        TropicalPolynomial.make({(0, 0): 0, (3, 0): 0, (0, 3): 0})
    )
    assert check_balancing(scaled)
    assert sorted((r.direction, r.weight) for r in scaled.rays) == [
        ((-1, 0), 3),
        ((0, -1), 3),
        ((1, 1), 3),
    ]
    xcurve, _ = corner_locus(
        TropicalPolynomial.make(
            {(0, 1): 0, (2, 1): 0, (1, 1): 0, (1, 2): -1, (1, 0): -1}
        )
    )
    assert [s.weight for s in xcurve.segments] == [2]
    assert newton_polygon_of(xcurve) == xcurve.newton


def _extensions(n, need, slots):
    """Bijections of labels to the items 0..n-1 in which every item comes
    after the items of its mask need[i] and label k goes to an item of the
    mask slots[k], counted by a dynamic programme over down-sets."""
    ways = {0: 1}
    for allowed in slots:
        nxt = Counter()
        for mask, k in ways.items():
            for i in range(n):
                if allowed >> i & 1 and not mask >> i & 1 and not need[i] & ~mask:
                    nxt[mask | 1 << i] += k
        ways = nxt
    return sum(ways.values())


def _labellings(diag, spec):
    """L: the markings of a diagram in which no two are identified, with the
    fixed tails of the alpha blocks taking the labels of their weight."""
    elements, order = poset(diag)
    index = {el: i for i, el in enumerate(elements)}
    need = [0] * len(elements)
    for el, preds in order.items():
        for p in preds:
            need[index[el]] |= 1 << index[p]

    def tails(inf, end, w):
        return sum(
            1 << index[("e", i)] for i, e in enumerate(diag.edges) if e[end] in inf and e[2] == w
        )

    def block(alpha):
        return [k + 1 for k, a in enumerate(alpha) for _ in range(a)]

    slots = [tails(diag.inf_minus, 0, w) for w in block(spec.alpha_minus)]
    slots += [(1 << len(elements)) - 1] * spec.s
    slots += [tails(diag.inf_plus, 1, w) for w in block(spec.alpha_plus)]
    return _extensions(len(elements), need, slots)


def _count_without_classes(spec):
    """Every connected candidate of the generation search, a topologically
    labelled diagram, weighted mu * L / (e * prod m!), where e is the number
    of topological orders of its floors and m runs over the sizes of its
    classes of identical edges.  A class D is met e / |Aut_floor| times and
    |Aut| = |Aut_floor| * prod m!, so the sum is the count, found without
    isomorphism classes or automorphisms."""
    n = spec.data.d_height
    m = spec.genus + n - 1
    total = Fraction(0)
    for tl, _, down, up, c in diagram_mod._boundary_choices(spec):
        for fins in diagram_mod._weighted_edges(c, m):
            if component_count(range(n), [e[:2] for e in fins]) != 1:
                continue
            diag = diagram_mod._build_diagram(tl, fins, down, up)
            floor_need = [0] * n
            for s, t, _ in fins:
                floor_need[t] |= 1 << s
            orders = _extensions(n, floor_need, [(1 << n) - 1] * n)
            identical = Counter(fins)
            identical.update(("-", t, w) for t, w in down)
            identical.update(("+", s, w) for s, w in up)
            orderings = math.prod(math.factorial(k) for k in identical.values())
            total += Fraction(multiplicity(diag, spec) * _labellings(diag, spec), orders * orderings)
    return total


def test_count_matches_a_sum_over_labelled_candidates():
    # plane curves of degree 3..5 at every genus, the cubic and quartic
    # boundary types, the toric examples and two trapezia at every genus
    specs = [
        DiagramSpec(triangle(d), (0, 1), g, (), (), (), (d,))
        for d in (3, 4, 5)
        for g in range(triangle(d).interior_points() + 1)
    ]
    specs += [
        DiagramSpec(triangle(3), (0, 1), g, (), alpha, (), beta)
        for g in (0, 1)
        for alpha, beta in _boundary_types(3)
    ]
    specs += [
        DiagramSpec(triangle(4), (0, 1), g, (), alpha, (), beta)
        for g in range(4)
        for alpha, beta in [((), (0, 2)), ((2,), (0, 1)), ((0, 0, 0, 1), ())]
    ]
    specs += [DiagramSpec(diamond(), (0, 1), g) for g in (0, 1)]
    specs += [DiagramSpec(octic_quadrilateral(), (0, 1), g) for g in (0, 1, 2)]
    specs += [DiagramSpec(trapezium(1, 3, 2), (0, 1), g, (), (), (2,), (5,)) for g in range(6)]
    specs += [DiagramSpec(trapezium(2, 3, 2), (0, 1), g, (), (), (2,), (8,)) for g in range(9)]
    specs = list(dict.fromkeys(specs))
    for spec in specs:
        assert _count_without_classes(spec) == count(spec), spec
