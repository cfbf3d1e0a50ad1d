import hashlib
import itertools
import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from tropico import diagram as diagram_mod
from tropico import io
from tropico.diagram import (
    Disconnected,
    FloorDiagram,
    Marking,
    canonical_key,
    count_markings,
    diagram_genus,
    enumerate_diagrams,
    enumerate_markings,
    explain,
    lemma_1_5_check,
    marking_violations,
    multiplicity,
    validate,
    validate_verbose,
    weighted_count_check,
)
from tropico.lattice import (
    InvariantViolation,
    NotTransverse,
    component_count,
    cubic_triangle,
    diamond,
    octic_quadrilateral,
    trapezium,
    triangle,
)
from tropico.peel import (
    DiagramError,
    DiagramSpec,
    SideBoundaryCondition,
    count,
    nseq,
)


def genus1_cubic_diagram():
    """Three floors in a chain, doubled lower finite edge, three unit tails."""
    return FloorDiagram(
        floors=((0, 0), (1, 0), (2, 0)),
        inf_minus=(3, 4, 5),
        inf_plus=(),
        edges=((3, 0, 1), (4, 0, 1), (5, 0, 1), (0, 1, 1), (0, 1, 1), (1, 2, 1)),
    )


def max_genus_trapezium_diagram():
    """Maximal-genus diagram of the r=2, a=3, b=2 trapezium: 3 floors, six
    plus four parallel unit finite edges, eight down tails, two up tails."""
    edges = []
    inf_minus, inf_plus = [], []
    nid = 3
    for _ in range(8):
        edges.append((nid, 0, 1))
        inf_minus.append(nid)
        nid += 1
    edges += [(0, 1, 1)] * 6 + [(1, 2, 1)] * 4
    for _ in range(2):
        edges.append((2, nid, 1))
        inf_plus.append(nid)
        nid += 1
    return FloorDiagram(
        floors=((0, 0), (1, 0), (2, 0)),
        inf_minus=tuple(inf_minus),
        inf_plus=tuple(inf_plus),
        edges=tuple(edges),
    )


def doubled_edge_diamond_diagram():
    """Two floors with theta -1 and +1 joined by two parallel unit edges."""
    return FloorDiagram(
        floors=((0, 1), (1, -1)),
        inf_minus=(),
        inf_plus=(),
        edges=((0, 1, 1), (0, 1, 1)),
    )


T3_B3 = DiagramSpec(triangle(3), (0, 1), 0, (), (), (), (3,))
T3_B3_G1 = DiagramSpec(triangle(3), (0, 1), 1, (), (), (), (3,))
T3_B11 = DiagramSpec(triangle(3), (0, 1), 0, (), (), (), (1, 1))
T3_A01_B1 = DiagramSpec(triangle(3), (0, 1), 0, (), (0, 1), (), (1,))
DIAMOND_G0 = DiagramSpec(diamond(), (0, 1), 0)
DIAMOND_G1 = DiagramSpec(diamond(), (0, 1), 1)
OCTIC_G1 = DiagramSpec(octic_quadrilateral(), (0, 1), 1)
OCTIC_G0 = DiagramSpec(octic_quadrilateral(), (0, 1), 0)


def test_diagram_genus():
    assert diagram_genus(genus1_cubic_diagram()) == 1
    tree = FloorDiagram(((0, 0), (1, 0)), (2,), (), ((2, 0, 1), (0, 1, 1)))
    assert diagram_genus(tree) == 0
    maxg = max_genus_trapezium_diagram()
    assert diagram_genus(maxg) == 8 == trapezium(2, 3, 2).interior_points()


def test_diagram_genus_disconnected():
    two = FloorDiagram(((0, 0), (1, 1)), (), (), ())
    with pytest.raises(Disconnected):
        diagram_genus(two)


def test_structural_rejections():
    with pytest.raises(Exception):
        FloorDiagram(((0, 0),), (1, 2), (), ((1, 2, 1),))  # edge between infinities
    with pytest.raises(Exception):
        FloorDiagram(((0, 0),), (1,), (), ((0, 1, 1),))  # -inf vertex with ingoing edge
    with pytest.raises(Exception):
        FloorDiagram(((0, 0),), (1,), (), ((1, 0, 0),))  # zero weight


def test_validate_examples():
    assert validate(genus1_cubic_diagram(), T3_B3_G1)
    bad = FloorDiagram(
        floors=((0, 0), (1, 0), (2, 0)),
        inf_minus=(3, 4, 5),
        inf_plus=(),
        edges=((3, 0, 1), (4, 0, 1), (5, 0, 1), (0, 1, 2), (0, 1, 1), (1, 2, 1)),
    )
    ok, violations = validate_verbose(bad, T3_B3_G1)
    assert not ok and violations
    assert validate(doubled_edge_diamond_diagram(), DIAMOND_G1)
    assert validate(max_genus_trapezium_diagram(), DiagramSpec(trapezium(2, 3, 2), (0, 1), 8, (), (), (2,), (8,)))


def test_validate_verbose_messages(monkeypatch):
    # one connectivity check per call, whatever the violations
    calls = []

    def counted(nodes, links):
        calls.append(1)
        return component_count(nodes, links)

    monkeypatch.setattr(diagram_mod, "component_count", counted)
    tails = ((3, 0, 1), (4, 0, 1), (5, 2, 1))
    disconnected = FloorDiagram(((0, 0), (1, 0), (2, 0)), (3, 4, 5), (), tails + ((0, 1, 1),))
    cyclic = FloorDiagram(
        ((0, 0), (1, 0), (2, 0)), (3, 4, 5), (), tails + ((0, 1, 1), (1, 2, 1), (2, 1, 1))
    )
    both = FloorDiagram(((0, 0), (1, 0), (2, 0)), (3, 4, 5), (), tails + ((0, 1, 1), (1, 0, 1)))
    cases = [
        (disconnected, ["disconnected"]),
        (cyclic, ["oriented cycle"]),
        (both, ["disconnected", "oriented cycle"]),
        (genus1_cubic_diagram(), ["genus 1 != 0"]),
    ]
    for diag, expected in cases:
        calls.clear()
        assert validate_verbose(diag, T3_B3) == (False, expected)
        assert len(calls) == 1


def test_validate_verbose_sums_the_weight_at_each_end():
    # one tail made heavier at each end of a Tz^1_{3,2} diagram, whose
    # bottom edge has length 5 and top edge length 2
    diag = enumerate_diagrams(TZ132_G1)[0]
    for ends, message in ((diag.inf_minus, "sum div over -inf vertices -6 != -5"),
                          (diag.inf_plus, "sum div over +inf vertices 3 != 2")):
        idx = next(i for i, (a, b, _) in enumerate(diag.edges) if a in ends or b in ends)
        edges = list(diag.edges)
        a, b, w = edges[idx]
        edges[idx] = (a, b, w + 1)
        heavier = FloorDiagram(diag.floors, diag.inf_minus, diag.inf_plus, tuple(edges))
        ok, violations = validate_verbose(heavier, TZ132_G1)
        assert not ok and message in violations, violations


def test_a_plane_floor_moved_off_its_thetas_fails_the_theta_lists():
    # on a plane spec every left theta is 0 and every right theta 1, so a
    # floor whose theta or divergence changes breaks a theta list
    for d in (3, 4, 5):
        spec = DiagramSpec(triangle(d), (0, 1), 1, (), (), (), (d,))
        for diag in enumerate_diagrams(spec):
            for i, (f, theta) in enumerate(diag.floors):
                floors = diag.floors[:i] + ((f, theta + 1),) + diag.floors[i + 1:]
                moved = FloorDiagram(floors, diag.inf_minus, diag.inf_plus, diag.edges)
                ok, violations = validate_verbose(moved, spec)
                assert not ok and any(v.startswith("theta list") for v in violations)
            # a down tail one heavier: its floor's divergence is 2
            for j, (s, t, w) in enumerate(diag.edges):
                if s in diag.inf_minus:
                    edges = diag.edges[:j] + ((s, t, w + 1),) + diag.edges[j + 1:]
                    heavier = FloorDiagram(diag.floors, diag.inf_minus, diag.inf_plus, edges)
                    ok, violations = validate_verbose(heavier, spec)
                    assert not ok and any(v.startswith("theta+div list") for v in violations)


def test_enumerate_diagrams_counts():
    assert len(enumerate_diagrams(T3_B3_G1)) == 1
    assert len(enumerate_diagrams(T3_B3)) == 3
    assert len(enumerate_diagrams(DIAMOND_G0)) == 1
    for diag in enumerate_diagrams(T3_B3):
        assert len(diag.floors) == 3


def test_enumerate_diagrams_errors():
    with pytest.raises(NotTransverse):
        enumerate_diagrams(DiagramSpec(cubic_triangle(), (0, 1), 0, (), (), (), (1,)))
    with pytest.raises(SideBoundaryCondition):
        enumerate_diagrams(DiagramSpec(diamond(), (0, 1), 0, (), (1,), (), ()))


def _shape(diag):
    fins = diag.floor_data[2]
    if any(w == 2 for _, _, w in fins):
        return "weighted"
    out_degrees = {}
    for s, _, _ in fins:
        out_degrees[s] = out_degrees.get(s, 0) + 1
    return "fork" if 2 in out_degrees.values() else "chain"


def _census(spec):
    return {
        _shape(d): len(enumerate_markings(d, spec)) for d in enumerate_diagrams(spec)
    }


def test_marking_census_type_03():
    assert _census(T3_B3) == {"weighted": 1, "chain": 5, "fork": 3}


def test_marking_census_type_011():
    assert _census(T3_B11) == {"weighted": 2, "chain": 4, "fork": 6}


def test_marking_census_type_fixed_tangency():
    assert _census(T3_A01_B1) == {"weighted": 1, "chain": 3, "fork": 3}


def test_markings_are_bijections():
    for spec in (T3_B3, T3_A01_B1, OCTIC_G1):
        for diag in enumerate_diagrams(spec):
            universe = set(poset(diag)[0])
            for marking in enumerate_markings(diag, spec):
                assert set(marking.labels) == universe
                assert len(marking.labels) == len(universe)
                assert len(marking.labels) == len(spec.label_range())


def test_marking_order_compatibility():
    for diag in enumerate_diagrams(T3_B3):
        _, preds = poset(diag)
        for marking in enumerate_markings(diag, T3_B3):
            pos = {el: i for i, el in enumerate(marking.labels)}
            for el, ps in preds.items():
                for p in ps:
                    assert pos[p] < pos[el]


def test_orbit_count_equals_raw_count_when_aut_trivial():
    # the 5-marking cubic chain has trivial floor symmetry: the class count
    # equals the count of class-canonical order-compatible sequences
    for diag in enumerate_diagrams(T3_B3):
        if _shape(diag) == "chain":
            assert len(_floor_permutations(diag)) == 1 == diag.canonical_form[1]
            assert len(enumerate_markings(diag, T3_B3)) == 5


def test_multiplicity_examples():
    by_shape = {_shape(d): d for d in enumerate_diagrams(T3_B3)}
    assert multiplicity(by_shape["weighted"], T3_B3) == 4
    assert multiplicity(by_shape["chain"], T3_B3) == 1
    by_shape11 = {_shape(d): d for d in enumerate_diagrams(T3_B11)}
    assert multiplicity(by_shape11["weighted"], T3_B11) == 8
    assert multiplicity(by_shape11["chain"], T3_B11) == 2
    assert multiplicity(genus1_cubic_diagram(), T3_B3_G1) == 1


def test_count_golden():
    assert count(T3_B3) == 12
    assert count(T3_B11) == 36
    assert count(T3_A01_B1) == 10
    assert count(T3_B3_G1) == 1
    assert count(DIAMOND_G0) == 4
    assert count(DIAMOND_G1) == 1
    assert count(OCTIC_G1) == 12
    assert count(OCTIC_G0) == 16
    assert count(DiagramSpec(triangle(1), (0, 1), 0, (), (), (), (1,))) == 1


def test_count_matches_breakdown():
    total, rows = explain(T3_B11)
    assert total == sum(n * mu for _, n, mu in rows) == 36


def test_count_explain_rejects_rows_that_miss_the_total(monkeypatch):
    listed = diagram_mod.count_markings
    monkeypatch.setattr(diagram_mod, "count_markings", lambda d, s: listed(d, s) + 1)
    assert count(T3_B3) == 12
    with pytest.raises(InvariantViolation) as err:
        explain(T3_B3)
    assert "floor peeling gives 12" in str(err.value)


def test_count_errors():
    with pytest.raises(NotTransverse):
        count(DiagramSpec(cubic_triangle(), (0, 1), 0, (), (), (), (1,)))
    with pytest.raises(SideBoundaryCondition):
        count(DiagramSpec(diamond(), (0, 1), 0, (), (1,), (), ()))
    with pytest.raises(SideBoundaryCondition):
        count(DiagramSpec(triangle(3), (0, 1), 0, (), (), (), (1,)))
    with pytest.raises(SideBoundaryCondition, match="d_plus = 0"):
        count(DiagramSpec(triangle(3), (0, 1), 0, (1,), (), (), (3,)))
    for genus in (-1, 2):
        with pytest.raises(DiagramError, match="out of range"):
            count(DiagramSpec(triangle(3), (0, 1), genus, (), (), (), (3,)))



def test_spec_rejects_entries_that_are_not_ints():
    # 1.5 + 2 * 0.75 = 3 passes check() by its I; genus True would count as 1
    t3 = triangle(3)
    cases = [
        ({"beta_minus": (1.5, 0.75)}, "beta_minus"),
        ({"genus": 0.5, "beta_minus": (3,)}, "genus"),
        ({"beta_minus": (3.0,)}, "beta_minus"),
        ({"genus": True, "beta_minus": (3,)}, "genus"),
        ({"alpha_minus": (0, 0, 1.0), "beta_minus": ()}, "alpha_minus"),
        ({"beta_plus": (False,), "beta_minus": (3,)}, "beta_plus"),
    ]
    for fields, name in cases:
        with pytest.raises(DiagramError, match=name):
            DiagramSpec(t3, (0, 1), **{"genus": 0, **fields})
    # negative entries keep their ValueError
    with pytest.raises(ValueError, match="nonnegative"):
        DiagramSpec(t3, (0, 1), 0, (), (), (), (-1, 2))
    assert count(DiagramSpec(t3, (0, 1), 1, (), (), (), [3])) == 1
    # the direction is two ints; a list counts like the tuple
    t4 = triangle(4)
    spec = DiagramSpec(t4, [0, 1], 0, (), (), (), (4,))
    assert spec.direction == (0, 1)
    assert count(spec) == count(DiagramSpec(t4, (0, 1), 0, (), (), (), (4,)))
    for direction in ((0.0, 1.0), (0, 1.0), (False, True), (0, 1, 0), (1,)):
        with pytest.raises(DiagramError, match="direction"):
            DiagramSpec(t3, direction, 0, (), (), (), (3,))


def _distinct_permutations(values):
    """The reference order of theta assignments: every permutation of
    ``values`` through a set, each distinct one at its first occurrence."""
    seen = set()
    for p in itertools.permutations(values):
        if p not in seen:
            seen.add(p)
            yield p


def test_lexicographic_permutations_match_the_reference():
    rng = random.Random(5)
    lists = [(), (0,), (0, 0, 0), (-1, 1, 1), (-3, -2, -1, 0, 0, 1, 2, 2, 5)]
    lists += [tuple(sorted(rng.randint(-4, 4) for _ in range(n))) for n in range(2, 10)]
    for values in lists:
        got = list(diagram_mod._lexicographic_permutations(values))
        assert got == list(_distinct_permutations(values)), values


def test_count_determinism():
    keys1 = [canonical_key(d) for d in enumerate_diagrams(T3_B3)]
    keys2 = [canonical_key(d) for d in enumerate_diagrams(T3_B3)]
    assert keys1 == keys2
    assert count(T3_B3) == count(T3_B3)


def test_maximal_genus_unique():
    for d in range(1, 5):
        pa = triangle(d).interior_points()
        spec = DiagramSpec(triangle(d), (0, 1), pa, (), (), (), (d,))
        diags = enumerate_diagrams(spec)
        assert count(spec) == 1
        assert len(diags) == 1
    tz_spec = DiagramSpec(trapezium(2, 3, 2), (0, 1), 8, (), (), (2,), (8,))
    assert len(enumerate_diagrams(tz_spec)) == 1


def test_lemma_1_5():
    assert lemma_1_5_check(genus1_cubic_diagram())
    for d in range(1, 4):
        for g in range(0, triangle(d).interior_points() + 1):
            spec = DiagramSpec(triangle(d), (0, 1), g, (), (), (), (d,))
            for diag in enumerate_diagrams(spec):
                assert lemma_1_5_check(diag)
                assert len(diag.floors) == d


def test_weighted_count_identity():
    cases = [
        (T3_B3, None),
        (OCTIC_G1, None),
        (DIAMOND_G0, None),
        (DiagramSpec(trapezium(2, 3, 2), (0, 1), 8, (), (), (2,), (8,)), None),
    ]
    for spec, _ in cases:
        for diag in enumerate_diagrams(spec):
            assert weighted_count_check(diag, spec)


def test_octic_diagram_shapes():
    diags = enumerate_diagrams(OCTIC_G1)
    assert len(diags) == 3
    marks = sorted(len(enumerate_markings(d, OCTIC_G1)) for d in diags)
    mults = sorted(multiplicity(d, OCTIC_G1) for d in diags)
    assert marks == [1, 1, 4]
    assert mults == [1, 4, 4]


# N-sequences a with I a = k, for the boundary types of cubics
SEQ_WITH_I = {0: [()], 1: [(1,)], 2: [(2,), (0, 1)], 3: [(3,), (1, 1), (0, 0, 1)]}
T3_TYPES = [
    (alpha, beta)
    for ia in range(4)
    for alpha in SEQ_WITH_I[ia]
    for beta in SEQ_WITH_I[3 - ia]
]
T4_TYPES = [((), (4,)), ((), (0, 2)), ((2,), (0, 1)), ((0, 0, 0, 1), ())]
TZ132_G1 = DiagramSpec(trapezium(1, 3, 2), (0, 1), 1, (), (), (2,), (5,))
TZ132_G2 = DiagramSpec(trapezium(1, 3, 2), (0, 1), 2, (), (), (2,), (5,))


# T4 g=0 of bottom tail weights 1 and 3, and of two tails of weight 2
T4_B101 = DiagramSpec(triangle(4), (0, 1), 0, (), (), (), (1, 0, 1))
T4_B02 = DiagramSpec(triangle(4), (0, 1), 0, (), (), (), (0, 2))


def test_count_markings_equals_enumeration():
    # every diagram of a polygon's specs against every spec of that polygon:
    # both are 0 for a diagram of another genus or boundary type
    groups = [
        [DiagramSpec(triangle(3), (0, 1), g, (), alpha, (), beta)
         for g in (0, 1) for alpha, beta in T3_TYPES],
        [DiagramSpec(triangle(4), (0, 1), g, (), alpha, (), beta)
         for g in range(4) for alpha, beta in T4_TYPES] + [T4_B101],
        [DIAMOND_G0, DIAMOND_G1],
        [OCTIC_G0, OCTIC_G1],
        [TZ132_G1],
    ]
    pairs = listed = 0
    for specs in groups:
        diags = [diag for spec in specs for diag in enumerate_diagrams(spec)]
        for spec in specs:
            for diag in diags:
                nclasses = count_markings(diag, spec)
                assert nclasses == len(enumerate_markings(diag, spec)), (spec, diag)
                pairs += 1
                listed += nclasses > 0
    assert 0 < listed < pairs


def test_a_diagram_of_another_boundary_type_has_no_markings():
    # the first T4 diagram with bottom tails of weights 1 and 3 has the
    # summed tail weight of the type of two tails of weight 2, and none of
    # its markings
    diag = enumerate_diagrams(T4_B101)[0]
    assert sorted(w for _, w in diag.floor_data[3]) == [1, 3]
    assert count_markings(diag, T4_B101) == len(enumerate_markings(diag, T4_B101)) == 30
    assert count_markings(diag, T4_B02) == len(enumerate_markings(diag, T4_B02)) == 0
    assert validate_verbose(diag, T4_B02) == (False, ["bottom tail weights [1, 3] != type [2, 2]"])
    assert validate_verbose(diag, T4_B101) == (True, [])


def test_relabelling_identities():
    specs = [DiagramSpec(triangle(4), (0, 1), g, (), (), (), (4,)) for g in range(4)]
    for spec in specs + [TZ132_G1]:
        for diag in enumerate_diagrams(spec):
            key = canonical_key(diag)
            encodings = [_encode(r) for r in _relabellings(diag.floor_data)]
            assert key == min(encodings)
            # orbit-stabiliser: the relabellings onto the key are a coset of Aut
            assert len(_floor_permutations(diag)) == encodings.count(key)
            assert diag.canonical_form[1] == encodings.count(key)
            first = class_forms(diag)[1]
            assert canonical_key(first) == key
            assert class_forms(first)[1] == first


def test_count_markings_rejects_a_remainder(monkeypatch):
    # the chain cubic has 5 labellings and a trivial automorphism group; a
    # group of order 2 would leave a remainder
    least_forms = diagram_mod._least_forms
    monkeypatch.setattr(diagram_mod, "_least_forms", lambda data: (*least_forms(data)[:2], 2))
    chain = next(d for d in enumerate_diagrams(T3_B3) if _shape(d) == "chain")
    with pytest.raises(InvariantViolation):
        count_markings(chain, T3_B3)


def test_enumerate_diagrams_reports_invalid_output(monkeypatch):
    monkeypatch.setattr(diagram_mod, "validate_verbose", lambda d, s: (False, ["broken"]))
    with pytest.raises(InvariantViolation) as err:
        enumerate_diagrams(T3_B3)
    assert err.value.violations == ["broken"]


def test_enumerate_diagrams_output_pinned():
    # sha256 of the JSON diagram lists as produced by a search over every
    # floor labelling, before it was restricted to topological labellings
    pinned = [
        (
            DiagramSpec(triangle(4), (0, 1), 0, (), (), (), (4,)),
            "6224d774cc52d32dc4c85a66c3e8c8e6839da0a4f4864291f3d5999efb06544a",
        ),
        (TZ132_G1, "b0742e63aa7173b7ca4ae17692b0ac6be3a341652ff5116bfdcc2e8824839335"),
        # pinned from the pair-multiset scan that the prefix-cut search replaced
        (
            DiagramSpec(triangle(5), (0, 1), 0, (), (), (), (5,)),
            "463475ce946117da80fb9a3555787f2aacc9e92e4ff2d987ecbb0c8ae7bb5985",
        ),
        (
            DiagramSpec(triangle(5), (0, 1), 1, (), (), (), (5,)),
            "bed3d0367da822f0181f2839fbd973b8f856a0f036ef8cecd1cd22445713ef22",
        ),
        # pinned from the n! relabelling pass that the branch-and-bound replaced
        (
            DiagramSpec(triangle(6), (0, 1), 0, (), (), (), (6,)),
            "7193d08e16f43d18dce406cccc9e630809370b59a5c1aa381f107fea1b0f69e9",
        ),
    ]
    for spec, digest in pinned:
        text = io.dumps([io.diagram_to_json(d) for d in enumerate_diagrams(spec)])
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def _subset_degrees(pairs, n):
    """Per floor subset (bitmask): number of edges entering and leaving it."""
    masks = []
    for mask in range(1, 1 << n):
        ein = eout = 0
        for s, t in pairs:
            sin, tin = bool(mask >> s & 1), bool(mask >> t & 1)
            if tin and not sin:
                ein += 1
            elif sin and not tin:
                eout += 1
        masks.append((mask, ein, eout))
    return masks


def _cut_feasible(c, cuts):
    """Gale-Hoffman style necessity: for every floor subset S, the net inflow
    sum(c[v], v in S) must be realizable as (in-weight) - (out-weight) with
    every crossing edge weight in [1, B]."""
    bound = sum(x for x in c if x > 0)
    for mask, ein, eout in cuts:
        net = 0
        v = 0
        m = mask
        while m:
            if m & 1:
                net += c[v]
            m >>= 1
            v += 1
        if not (ein - bound * eout <= net <= bound * ein - eout):
            return False
    return True


def _edge_weightings(pairs, c):
    """Positive integer weights on the directed pairs with prescribed per-floor
    net inflow c[i] (finite in minus finite out)."""
    m = len(pairs)
    n = len(c)
    bound = sum(x for x in c if x > 0)
    if m == 0:
        if all(x == 0 for x in c):
            yield ()
        return
    if bound == 0:
        return
    in_rem = [0] * n
    out_rem = [0] * n
    for s, t in pairs:
        out_rem[s] += 1
        in_rem[t] += 1
    acc_in = [0] * n
    acc_out = [0] * n
    result = [0] * m

    def feasible():
        for i in range(n):
            lo_in, hi_in = acc_in[i] + in_rem[i], acc_in[i] + in_rem[i] * bound
            lo_out, hi_out = acc_out[i] + out_rem[i], acc_out[i] + out_rem[i] * bound
            if lo_in > hi_out + c[i] or hi_in < lo_out + c[i]:
                return False
        return True

    def rec(idx):
        if idx == m:
            if all(acc_in[i] - acc_out[i] == c[i] for i in range(n)):
                yield tuple(result)
            return
        s, t = pairs[idx]
        out_rem[s] -= 1
        in_rem[t] -= 1
        for w in range(1, bound + 1):
            acc_out[s] += w
            acc_in[t] += w
            result[idx] = w
            if feasible():
                yield from rec(idx + 1)
            acc_out[s] -= w
            acc_in[t] -= w
        out_rem[s] += 1
        in_rem[t] += 1

    yield from rec(0)


def _weightable(pairs, c):
    return next(_edge_weightings(pairs, list(c)), None) is not None


def pair_multisets_brute_force(spec):
    """The pair scan that generation used before the prefix-cut search, kept
    as its reference: every multiset of m pairs i < j, the connected ones,
    and per net-inflow vector c those that pass the cut test over all floor
    subsets and have a positive weighting.  Returns {c: set of multisets}."""
    n = spec.data.d_height
    m = spec.genus + n - 1
    found = {tuple(c): set() for *_, c in diagram_mod._boundary_choices(spec)}
    pairs = list(itertools.combinations(range(n), 2))
    for combo in itertools.combinations_with_replacement(pairs, m):
        if component_count(range(n), combo) != 1:
            continue
        cuts = _subset_degrees(combo, n)
        for c, multisets in found.items():
            if _cut_feasible(c, cuts) and _weightable(combo, c):
                multisets.add(combo)
    return found


def test_prefix_cut_search_matches_the_pair_scan():
    # the weighted-edge search against the pair scan followed by the
    # weighting search it replaced: the same connected weighted multisets
    specs = [
        DiagramSpec(triangle(d), (0, 1), g, (), (), (), (d,)) for d in (3, 4, 5) for g in (0, 1, 2)
    ]
    specs = [s for s in specs if s.genus <= s.polygon.interior_points()]
    specs += [OCTIC_G0, OCTIC_G1, TZ132_G1, TZ132_G2]
    for spec in specs:
        n = spec.data.d_height
        m = spec.genus + n - 1
        for c, multisets in pair_multisets_brute_force(spec).items():
            expected = {
                tuple(sorted(zip(pairs, weights)))
                for pairs in multisets
                for weights in _edge_weightings(pairs, list(c))
            }
            searched = list(diagram_mod._weighted_edges(list(c), m))
            assert len(searched) == len(set(searched))
            got = set()
            for fins in searched:
                # pair order, the weights of parallel edges not increasing
                assert list(fins) == sorted(fins, key=lambda e: (e[0], e[1], -e[2]))
                inflow = [0] * n
                for s, t, w in fins:
                    inflow[s] -= w
                    inflow[t] += w
                assert tuple(inflow) == c
                if component_count(range(n), [(s, t) for s, t, _ in fins]) == 1:
                    got.add(tuple(sorted(((s, t), w) for s, t, w in fins)))
            assert got == expected, (spec, c)


def _shuffled(diag, rng):
    """The diagram with its floors renamed, and its floors and edges listed,
    in a random order."""
    new_ids = rng.sample(range(100, 200), len(diag.floors))
    rename = dict(zip(diag.floor_ids, new_ids))
    floors = [(rename[f], th) for f, th in diag.floors]
    edges = [(rename.get(s, s), rename.get(t, t), w) for s, t, w in diag.edges]
    rng.shuffle(floors)
    rng.shuffle(edges)
    return FloorDiagram(tuple(floors), diag.inf_minus, diag.inf_plus, tuple(edges))


def test_canonical_key_is_an_exact_isomorphism_test():
    rng = random.Random(6)
    specs = [DiagramSpec(triangle(4), (0, 1), g, (), (), (), (4,)) for g in range(4)]
    specs += [DiagramSpec(triangle(5), (0, 1), g, (), (), (), (5,)) for g in (0, 1)]
    specs += [TZ132_G1]
    for spec in specs:
        diagrams = enumerate_diagrams(spec)
        keys = [canonical_key(d) for d in diagrams]
        # distinct classes have distinct keys, and a class keeps its key
        # under any labelling of its floors, edges and vertices
        assert len(set(keys)) == len(diagrams)
        for diag, key in zip(diagrams, keys):
            assert canonical_key(_shuffled(diag, rng)) == key == canonical_key(_shuffled(diag, rng))


def test_count_explain_reports_a_split_class(monkeypatch):
    # a key that depends on the labelling lists one class more than once:
    # T4 g=0 has 16 candidates for 12 classes, so the rows overcount
    least_forms = diagram_mod._least_forms
    monkeypatch.setattr(diagram_mod, "_least_forms", lambda data: (repr(data), *least_forms(data)[1:]))
    spec = DiagramSpec(triangle(4), (0, 1), 0, (), (), (), (4,))
    assert len(enumerate_diagrams(spec)) == 16
    with pytest.raises(InvariantViolation) as err:
        explain(spec)
    assert "the listed diagrams sum to" in err.value.violations[0]


def test_the_listing_searches_each_candidate_once(monkeypatch):
    # the listing fills each diagram's canonical form, so counting the
    # markings of the listed diagrams searches no class again
    calls = []
    least_forms = diagram_mod._least_forms
    monkeypatch.setattr(diagram_mod, "_least_forms", lambda data: calls.append(data) or least_forms(data))
    spec = DiagramSpec(triangle(4), (0, 1), 0, (), (), (), (4,))
    rows = explain(spec)[1]
    assert len(calls) == 16 and len(rows) == 12


def _relabellings(data):
    """Every relabelling of the floors of `_floor_data` ``data``, one per
    permutation perm of the positions (the floor at position i moves to
    perm[i]), the identity first.

    Yields (perm, lefts, rights, fins, downs, ups): the left and right
    thetas by new position, the finite edges (s, t, w) sorted, and the down
    tails (t, w) and up tails (s, w) in edge order.
    """
    lefts, rights, fins, downs, ups = data
    n = len(lefts)
    for perm in itertools.permutations(range(n)):
        new_lefts, new_rights = [0] * n, [0] * n
        for i, new in enumerate(perm):
            new_lefts[new] = lefts[i]
            new_rights[new] = rights[i]
        yield (
            perm,
            tuple(new_lefts),
            tuple(new_rights),
            sorted([(perm[s], perm[t], w) for s, t, w in fins]),
            [(perm[t], w) for t, w in downs],
            [(perm[s], w) for s, w in ups],
        )


def _encode(relabelling):
    """Encoding of a relabelling, as `_least_forms` minimises it: the left
    thetas by position, then the finite edges, down tails and up tails,
    each sorted."""
    _, lefts, _, fins, downs, ups = relabelling
    return (lefts, tuple(fins), tuple(sorted(downs)), tuple(sorted(ups)))


def _search_order(relabelling):
    # tails as (w, t): the weights agree position by position between
    # relabellings, so these lists compare as their targets do
    _, lefts, rights, fins, downs, ups = relabelling
    return (
        lefts,
        rights,
        [(s, t) for s, t, _ in fins],
        sorted([(w, t) for t, w in downs]),
        sorted([(w, s) for s, w in ups]),
        [w for _, _, w in fins],
    )


def _in_search_order(first):
    """The diagram of a least search order, as `enumerate_diagrams` builds it."""
    lefts, _, pairs, down, up, weights = first
    fins = [(s, t, w) for (s, t), w in zip(pairs, weights)]
    return diagram_mod._build_diagram(
        lefts, fins, [(t, w) for w, t in down], [(s, w) for w, s in up]
    )


def class_forms(diagram):
    """The canonical key, the first labelling and |Aut_floor| of a
    diagram's class, from `_least_forms`."""
    key, first, aut = diagram_mod._least_forms(diagram.floor_data)
    return key, _in_search_order(first), aut


def class_forms_brute_force(diagram):
    """The pass that the branch-and-bound replaced, kept as its reference:
    over all n! relabellings of the floors, the least `_encode` (the
    canonical key), the diagram in the least `_search_order` (the first
    labelling) and the number of relabellings onto the key (|Aut_floor|)."""
    relabellings = list(_relabellings(diagram.floor_data))
    encodings = [_encode(r) for r in relabellings]
    key = min(encodings)
    first = min(map(_search_order, relabellings))
    return key, _in_search_order(first), encodings.count(key)


def test_class_forms_match_the_relabelling_pass():
    rng = random.Random(7)
    specs = [
        DiagramSpec(triangle(d), (0, 1), g, (), (), (), (d,))
        for d in (3, 4, 5)
        for g in range(triangle(d).interior_points() + 1)
    ]
    specs += [DiagramSpec(triangle(6), (0, 1), g, (), (), (), (6,)) for g in (0, 8)]
    specs += [TZ132_G1, TZ132_G2, DIAMOND_G0, DIAMOND_G1, OCTIC_G0, OCTIC_G1]
    # seven tied floors, searched with bounds at every depth: 11 diagrams
    specs += [DiagramSpec(triangle(7), (0, 1), 14, (), (), (), (7,))]
    for spec in specs:
        for diag in enumerate_diagrams(spec):
            expected = class_forms_brute_force(diag)
            assert class_forms(diag) == expected, (spec, diag)
            # the forms cannot depend on the labelling they start from
            shuffled = _shuffled(diag, rng)
            assert class_forms(shuffled) == expected, (spec, shuffled)


def _random_diagram(rng, n):
    """A connected acyclic diagram on n floors with random thetas, weights,
    parallel edges and tails: ties between relabellings with equal finite
    edges and different tails are common."""
    edges = [(rng.randrange(t), t, rng.randint(1, 2)) for t in range(1, n)]
    for _ in range(rng.randint(0, 3)):
        s, t = sorted(rng.sample(range(n), 2))
        edges.append((s, t, rng.randint(1, 3)))
    inf_minus = tuple(range(n, n + rng.randint(0, 3)))
    inf_plus = tuple(range(n + len(inf_minus), n + len(inf_minus) + rng.randint(0, 2)))
    edges += [(v, rng.randrange(n), rng.randint(1, 2)) for v in inf_minus]
    edges += [(rng.randrange(n), v, rng.randint(1, 2)) for v in inf_plus]
    floors = tuple((i, rng.choice((0, 0, 1))) for i in range(n))
    return FloorDiagram(floors, inf_minus, inf_plus, tuple(edges))


def test_class_forms_match_the_relabelling_pass_on_random_diagrams():
    rng = random.Random(8)
    for i in range(410):  # the last ten of seven floors
        diag = _random_diagram(rng, rng.randint(2, 6) if i < 400 else 7)
        expected = class_forms_brute_force(diag)
        assert class_forms(diag) == expected, diag
        assert class_forms(_shuffled(diag, rng)) == expected, diag


def poset(diagram):
    """The diagram order on floors and edges: the elements, ("f", floor id)
    in floor order and then ("e", edge index), and the set of immediate
    predecessors of each (an edge's source floor, a floor's in-edges)."""
    fl = set(diagram.floor_ids)
    elements = [("f", f) for f in diagram.floor_ids] + [("e", i) for i in range(len(diagram.edges))]
    preds = {el: set() for el in elements}
    for i, (s, t, _) in enumerate(diagram.edges):
        if s in fl:
            preds[("e", i)].add(("f", s))
        if t in fl:
            preds[("f", t)].add(("e", i))
    return elements, preds


def _alpha_block(alpha, offset):
    """Map label -> required tail weight for one alpha block starting at offset."""
    out = {}
    pos = offset
    for i, count in enumerate(alpha):
        for _ in range(count):
            out[pos] = i + 1
            pos += 1
    return out


def _edge_classes(diagram):
    """Class of each edge element: its endpoints (tails at "-inf"/"+inf") and
    its weight.  Edges of one class are interchanged by automorphisms."""
    fl = set(diagram.floor_ids)
    return {
        ("e", i): (s if s in fl else "-inf", t if t in fl else "+inf", w)
        for i, (s, t, w) in enumerate(diagram.edges)
    }


def label_moves_reference(diagram, spec):
    """The placement rule built from the poset, kept as the reference of
    `_label_moves`: per label, the moves (element, bit, need) in element
    order, need holding the immediate predecessors and the previous edge
    of the element's class; an alpha label admits the tails of its weight."""
    elements, preds = poset(diagram)
    bit = {el: 1 << i for i, el in enumerate(elements)}
    classes = _edge_classes(diagram)
    last = {}  # class -> bit of its latest edge
    moves = []
    for el in elements:
        need = sum(bit[p] for p in preds[el])
        if el in classes:
            need |= last.get(classes[el], 0)
            last[classes[el]] = bit[el]
        moves.append((el, bit[el], need))
    labels = spec.label_range()
    lo = labels[0]
    out = [moves] * len(labels)
    for block, end, inf in (
        (_alpha_block(spec.alpha_minus, lo), 0, "-inf"),
        (_alpha_block(spec.alpha_plus, spec.s + 1), 1, "+inf"),
    ):
        for label, w in block.items():
            out[label - lo] = [
                mv
                for mv in moves
                if mv[0] in classes and classes[mv[0]][end] == inf and classes[mv[0]][2] == w
            ]
    return out


def _floor_permutations(diagram):
    """The relabellings of floors preserving theta and the weighted
    structure: the automorphisms of (D, w, theta) on floors, sorted, found
    among all n! relabellings."""
    encoded = [(r[0], _encode(r)) for r in _relabellings(diagram.floor_data)]
    return sorted(perm for perm, enc in encoded if enc == encoded[0][1])


def _orbit_token(diagram, seq, perm):
    """Canonical token stream of a marking under a floor permutation.

    Edges map to their class (endpoints after the permutation, plus weight);
    parallel edges and identical tails are interchangeable, so within a
    class edges are numbered by first appearance in label order.
    """
    ids = list(diagram.floor_ids)
    pos = {f: i for i, f in enumerate(ids)}
    fl = set(ids)
    counters = {}
    out = []
    for el in seq:
        if el[0] == "f":
            out.append(("f", perm[pos[el[1]]], 0, 0))
        else:
            s, t, w = diagram.edges[el[1]]
            sk = perm[pos[s]] if s in fl else -1
            tk = perm[pos[t]] if t in fl else -2
            cls = (sk, tk, w)
            k = counters.get(cls, 0)
            counters[cls] = k + 1
            out.append(("e", cls, k, 0))
    return tuple(out)


def markings_by_orbit_tokens(diagram, spec):
    """The marking listing that the marking forms replaced, kept as its
    reference: the class-canonical order-compatible sequences (within a
    class of identical edges, label order follows edge index order), each
    keyed by its least `_orbit_token` over the floor automorphisms; the
    first sequence of each key, sorted by key."""
    labels = spec.label_range()
    lo = labels[0]
    classes = _edge_classes(diagram)
    slots = [None] * len(labels)
    for label, w in _alpha_block(spec.alpha_minus, lo).items():
        slots[label - lo] = {el for el, c in classes.items() if c[0] == "-inf" and c[2] == w}
    for label, w in _alpha_block(spec.alpha_plus, spec.s + 1).items():
        slots[label - lo] = {el for el, c in classes.items() if c[1] == "+inf" and c[2] == w}
    elements, preds = poset(diagram)
    sequences, placed, used = [], [], set()

    def candidates():
        out = []
        seen_classes = set()
        for el in elements:
            if el in used or any(p not in used for p in preds[el]):
                continue
            if el[0] == "e":
                if classes[el] in seen_classes:
                    continue
                seen_classes.add(classes[el])
            out.append(el)
        return out

    def rec(pos):
        if pos == len(labels):
            sequences.append(tuple(placed))
            return
        for el in candidates():
            if slots[pos] is not None and el not in slots[pos]:
                continue
            used.add(el)
            placed.append(el)
            rec(pos + 1)
            placed.pop()
            used.remove(el)

    rec(0)
    perms = _floor_permutations(diagram)
    keyed = {}
    for seq in sequences:
        keyed.setdefault(min(_orbit_token(diagram, seq, perm) for perm in perms), seq)
    return [diagram_mod.Marking(diagram, lo, keyed[k]) for k in sorted(keyed)]


# the marking listing corpus: cubics of every boundary type at g = 0, 1,
# quartics of the T4_TYPES at g = 0..2 (some with |Aut_floor| = 2 and 6),
# and the trapezium at g = 1, 2
MARKING_CORPUS = {
    "T3": [
        DiagramSpec(triangle(3), (0, 1), g, (), alpha, (), beta)
        for g in (0, 1)
        for alpha, beta in T3_TYPES
    ],
    "T4": [
        DiagramSpec(triangle(4), (0, 1), g, (), alpha, (), beta)
        for g in range(3)
        for alpha, beta in T4_TYPES
    ],
    "Tz": [TZ132_G1, TZ132_G2],
}


def test_enumerate_markings_output_pinned():
    # sha256 of the JSON marking lists as produced by the orbit-token listing
    pinned = {
        "T3": "624a481e9a0a3e78846c4e6e9ed66d4dc1746f1ee8d03867bc018878a2eb0c44",
        "T4": "c3241020fddce6d5e9379db5b4c5b6215cdcdfa5357dc77470b457ee5202857b",
        "Tz": "6e172e77d98e2ca4501dc61969adfe14a8a68e964448f6fef5ade8a558106d17",
    }
    for name, specs in MARKING_CORPUS.items():
        text = io.dumps(
            [
                io.marking_to_json(m)
                for spec in specs
                for d in enumerate_diagrams(spec)
                for m in enumerate_markings(d, spec)
            ]
        )
        assert hashlib.sha256(text.encode()).hexdigest() == pinned[name], name


def test_enumerate_markings_matches_the_orbit_tokens():
    auts = set()
    for specs in MARKING_CORPUS.values():
        for spec in specs:
            for diag in enumerate_diagrams(spec):
                auts.add(diag.canonical_form[1])
                assert enumerate_markings(diag, spec) == markings_by_orbit_tokens(diag, spec)
    assert {2, 6} <= auts


def _random_type(rng, diag):
    """The parts of a DiagramSpec that listing markings reads, for a diagram
    that belongs to no polygon: a random part of each side's tails is
    fixed (alpha), the rest moves (beta)."""

    def split(weights):
        alpha, beta = [0] * 3, [0] * 3
        for w in weights:
            (alpha if rng.random() < 0.5 else beta)[w - 1] += 1
        return nseq(alpha), nseq(beta)

    alpha_minus, beta_minus = split(w for _, w in diag.floor_data[3])
    alpha_plus, beta_plus = split(w for _, w in diag.floor_data[4])
    lo = 1 - sum(alpha_minus)
    size = len(poset(diag)[0])
    s = size - sum(alpha_minus) - sum(alpha_plus)
    return SimpleNamespace(
        alpha_minus=alpha_minus,
        beta_minus=beta_minus,
        alpha_plus=alpha_plus,
        beta_plus=beta_plus,
        s=s,
        label_range=lambda: list(range(lo, lo + size)),
    )


def test_enumerate_markings_matches_the_orbit_tokens_on_random_diagrams(monkeypatch):
    # random diagrams belong to no polygon, so validation is skipped
    monkeypatch.setattr(diagram_mod, "validate", lambda diag, spec: True)
    rng = random.Random(10)
    tried = 0
    while tried < 150:
        diag = _random_diagram(rng, rng.randint(2, 5))
        spec = _random_type(rng, diag)
        assert diag.canonical_form[1] == len(_floor_permutations(diag)), diag
        nclasses = count_markings(diag, spec)
        if nclasses * diag.canonical_form[1] > 2000:
            continue  # too many sequences for the reference to list
        tried += 1
        markings = enumerate_markings(diag, spec)
        assert markings == markings_by_orbit_tokens(diag, spec), diag
        assert nclasses == len(markings), diag


def _check_label_moves(diag, spec):
    pos = {f: i for i, f in enumerate(diag.floor_ids)}
    moves = diagram_mod._label_moves(diag, spec)
    assert [[mv[:3] for mv in per_label] for per_label in moves] == label_moves_reference(
        diag, spec
    ), diag
    for per_label in moves:
        for (kind, x), _, _, part in per_label:
            if kind == "f":
                assert part == pos[x], diag
            else:
                s, t, w = diag.edges[x]
                assert part == (pos.get(s, -1), pos.get(t, -2), w), diag


def test_label_moves_match_the_poset_reference():
    for specs in MARKING_CORPUS.values():
        for spec in specs:
            for diag in enumerate_diagrams(spec):
                _check_label_moves(diag, spec)
    rng = random.Random(18)
    for _ in range(150):
        diag = _random_diagram(rng, rng.randint(2, 5))
        _check_label_moves(diag, _random_type(rng, diag))


# ---------------------------------------------------------------------------
# the marking rule


T3_A1_B01 = DiagramSpec(triangle(3), (0, 1), 0, (), (1,), (), (0, 1))
T3_A11 = DiagramSpec(triangle(3), (0, 1), 0, (), (1, 1), (), ())
# the top-side analogue of T3_A1_B01: along (0, -1) the edge y = 0 is the top
T3_TOP_A1_B01 = DiagramSpec(triangle(3), (0, -1), 0, (1,), (), (0, 1), ())
RULE_CORPUS = [
    *(spec for specs in MARKING_CORPUS.values() for spec in specs),
    T3_TOP_A1_B01,
    DiagramSpec(triangle(4), (0, -1), 1, (0, 2), (), (), ()),
    DiagramSpec(triangle(4), (0, -1), 0, (1,), (), (1, 1), ()),
    DiagramSpec(triangle(5), (0, 1), 4, (), (), (), (5,)),
    DiagramSpec(triangle(5), (0, 1), 5, (), (0, 1), (), (1, 1)),
    DiagramSpec(triangle(5), (0, 1), 3, (), (1, 0, 1), (), (1,)),
    DiagramSpec(triangle(5), (0, -1), 4, (0, 1), (), (3,), ()),
    DiagramSpec(triangle(5), (0, 1), 6, (), (5,), (), ()),
]


def test_every_listed_marking_passes_the_marking_rule():
    listed = 0
    for spec in RULE_CORPUS:
        for diag in enumerate_diagrams(spec):
            for marking in enumerate_markings(diag, spec):
                assert marking_violations(diag, marking, spec) == [], (diag, marking)
                listed += 1
    assert listed > 3000


def test_the_marking_rule_admits_exactly_the_listed_labellings():
    # every labelling of a small diagram by its label range, against the
    # listing: identical edges may take their labels in any order under the
    # rule, so each listed class stands for |Aut_floor| * prod k! labellings
    # (k the size of each class of identical edges)
    specs = [
        DiagramSpec(triangle(3), (0, 1), 0, (), alpha, (), beta)
        for alpha, beta in T3_TYPES
        if len(diagram_mod.weight_multiset(alpha, beta)) == 2
    ]
    checked = set()
    for spec in [*specs, T3_TOP_A1_B01]:
        start = spec.label_range()[0]
        for diag in enumerate_diagrams(spec):
            passed = sum(
                not marking_violations(diag, Marking(diag, start, labels), spec)
                for labels in itertools.permutations(poset(diag)[0])
            )
            identical = Counter(_edge_classes(diag).values()).values()
            want = count_markings(diag, spec) * diag.canonical_form[1]
            assert passed == want * math.prod(map(math.factorial, identical)), (spec, diag)
            checked.add((spec.alpha_minus, spec.alpha_plus, passed > 0))
    assert {((1, 1), (), True), ((1,), (), True), ((), (1,), True)} <= checked


def _swapped(marking, a, b):
    """marking with the elements of labels a and b exchanged."""
    labels = list(marking.labels)
    i, j = a - marking.label_start, b - marking.label_start
    labels[i], labels[j] = labels[j], labels[i]
    return Marking(marking.diagram, marking.label_start, tuple(labels))


def tampered_markings():
    """The tampered markings of test_each_tampered_marking_has_its_own_violation
    by name, each as (spec, the listed marking it was made from, the
    tampered marking): swapped alpha labels, an alpha label on the mobile
    tail of weight 2 or on a floor, at the bottom and at the top, an edge
    labelled below its source floor, a shifted range and a duplicated
    element."""
    out = {}
    diag = enumerate_diagrams(T3_A11)[0]
    marking = enumerate_markings(diag, T3_A11)[0]
    out["alpha swap"] = T3_A11, marking, _swapped(marking, -1, 0)
    for spec, fixed, side in ((T3_A1_B01, 0, "bottom"), (T3_TOP_A1_B01, 7, "top")):
        diag = enumerate_diagrams(spec)[0]
        marking = enumerate_markings(diag, spec)[0]
        label = {el: lab for lab, el in marking.as_dict().items()}
        heavy = next(("e", i) for i, (_, _, w) in enumerate(diag.edges) if w == 2)
        out[f"{side} heavy"] = spec, marking, _swapped(marking, fixed, label[heavy])
        out[f"{side} floor"] = spec, marking, _swapped(marking, fixed, label["f", 0])
    diag = enumerate_diagrams(T3_B3_G1)[0]
    marking = enumerate_markings(diag, T3_B3_G1)[0]
    out["below"] = T3_B3_G1, marking, _swapped(marking, 4, 5)
    out["shifted"] = T3_B3_G1, marking, Marking(diag, marking.label_start - 3, marking.labels)
    out["twice"] = T3_B3_G1, marking, Marking(diag, 1, marking.labels[:8] + (("e", 5),))
    return out


def test_each_tampered_marking_has_its_own_violation():
    tampered = tampered_markings()
    # the swapped alpha labels of T3 a-=(1,1): the weight-2 tail on the
    # weight-1 label and back
    _, marking, swapped = tampered["alpha swap"]
    diag = marking.diagram
    assert diag.edges[:2] == ((3, 0, 1), (4, 0, 2)) and marking.labels[:2] == (("e", 0), ("e", 1))
    assert marking_violations(diag, swapped, T3_A11) == [
        "label -1 is not on a bottom tail of weight 1",
        "label 0 is not on a bottom tail of weight 2",
    ]
    # an alpha label on the mobile tail of weight 2, at the bottom and at the
    # top; an alpha label on a floor
    for spec, fixed, side in ((T3_A1_B01, 0, "bottom"), (T3_TOP_A1_B01, 7, "top")):
        alpha = f"label {fixed} is not on a {side} tail of weight 1"
        _, marking, heavy = tampered[f"{side} heavy"]
        assert marking_violations(marking.diagram, heavy, spec) == [alpha]
        violations = marking_violations(marking.diagram, tampered[f"{side} floor"][2], spec)
        assert violations[0] == "floor 0 must carry a point label" and violations[-1] == alpha
    # an edge labelled below its source floor, a shifted range, and a
    # duplicated element
    _, marking, below = tampered["below"]
    diag = marking.diagram
    assert marking.labels[3:5] == (("f", 0), ("e", 3)) and diag.edges[3] == (0, 1, 1)
    assert marking_violations(diag, below, T3_B3_G1) == [
        "label of edge 3 is not between the labels of its floors"
    ]
    assert marking_violations(diag, tampered["shifted"][2], T3_B3_G1) == [
        f"labels {list(range(-2, 7))} are not the label range {list(range(1, 10))}"
    ]
    assert marking.labels[7:] == (("e", 5), ("f", 2))
    assert marking_violations(diag, tampered["twice"][2], T3_B3_G1) == [
        "labels 8 and 9 are both on ('e', 5)",
        "floor 2 must carry a point label",
    ]


def test_a_marking_file_naming_no_element_breaks_the_rule():
    # io reads any "<kind><index>" name; the rule decides what it names
    diag = enumerate_diagrams(T3_B3_G1)[0]
    data = io.marking_to_json(enumerate_markings(diag, T3_B3_G1)[0])
    assert data["labels"]["9"] == "f2" and diag.inf_minus == (3, 4, 5)
    for name, element in (("e99", ("e", 99)), ("q3", ("q", 3)), ("f3", ("f", 3))):
        marking = io.marking_from_json({"labels": {**data["labels"], "9": name}}, diag)
        assert marking_violations(diag, marking, T3_B3_G1) == [
            f"label 9 is on {element!r}, not a floor or edge of the diagram",
            "floor 2 must carry a point label",
        ]
