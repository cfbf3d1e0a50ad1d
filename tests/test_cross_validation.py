"""Cross-validation sweeps: the diagram pipeline against the recursion
oracle over all boundary types, and the two in-package pipelines against
each other on randomly drawn transverse polygons."""

import itertools
import random

import ch_oracle
from tropico.diagram import (
    DiagramSpec,
    canonical_key,
    count,
    enumerate_diagrams,
    enumerate_markings,
    nseq_Ipow,
)
from tropico.lattice import (
    LatticePolygon,
    diamond,
    direction_data,
    octic_quadrilateral,
    random_lattice_polygon,
    transverse_directions,
    triangle,
)
from tropico.realize import realize_stretched, verify_realization
from tropico.tropical import corner_locus, tropical_multiplicity, TropicalPolynomial


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


def test_all_cubic_types_match_oracle():
    d = 3
    for g in (0, 1):
        for ia in range(d + 1):
            for alpha in _sequences_with_I(ia):
                for beta in _sequences_with_I(d - ia):
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
