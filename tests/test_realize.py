import hashlib
import importlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from tropico import diagram as diagram_module
from tropico import io
from tropico import tropical
from tropico.diagram import (
    FloorDiagram,
    Marking,
    canonical_key,
    enumerate_diagrams,
    enumerate_markings,
    validate,
)
from tropico.lattice import (
    DegeneratePolygon,
    InvariantViolation,
    LatticePolygon,
    TropicoError,
    component_roots,
    det,
    diamond,
    direction_data,
    dot,
    octic_quadrilateral,
    perp,
    scale,
    slope_of,
    slope_reference,
    slope_vector,
    triangle,
)
from tropico.peel import DiagramError, DiagramSpec, count, nseq_Ipow
from tropico.realize import (
    InvalidMarking,
    PointConfig,
    RealizeError,
    Realization,
    SpacingTooSmall,
    default_spacing,
    floor_decompose,
    points_on_curve,
    realize,
    realize_stretched,
    stretch_points,
    verify_realization,
    _decompose,
    _split,
    _recovers,
    _transverse_axis,
)
from tropico.tropical import NotClosed, NotTrivalent, ParametrizedCurve, PEdge, _dual_polygon
from tropico.tropical import _integral_frame
from tropico.tropical import check_balancing, tropical_multiplicity

from test_diagram import tampered_markings


T1 = DiagramSpec(triangle(1), (0, 1), 0, (), (), (), (1,))
T3_G0 = DiagramSpec(triangle(3), (0, 1), 0, (), (), (), (3,))
T3_G1 = DiagramSpec(triangle(3), (0, 1), 1, (), (), (), (3,))
OCTIC_G1 = DiagramSpec(octic_quadrilateral(), (0, 1), 1)


def test_stretch_points_counts():
    assert len(stretch_points(T1, seed=3).points) == 2
    assert len(stretch_points(T3_G0, seed=3).points) == 8
    assert len(stretch_points(OCTIC_G1, seed=3).points) == 6


def test_omega_lines_have_their_abscissa_and_height_zero():
    cfg = PointConfig((1, 2), ((Fraction(0), Fraction(1)),), (Fraction(1, 2),), (Fraction(3),))
    lines = cfg.omega_lines
    assert [dot(_transverse_axis(cfg.direction), base) for base, _ in lines] == [Fraction(1, 2), 3]
    assert [(dot(cfg.direction, base), d) for base, d in lines] == [(0, (1, 2))] * 2


def test_stretch_points_determinism_and_config_checks():
    a = stretch_points(T3_G0, seed=5)
    b = stretch_points(T3_G0, seed=5)
    assert a == b
    c = stretch_points(T3_G0, seed=6)
    assert a != c
    with pytest.raises(Exception):
        PointConfig((0, 1), ((0, 0), (0, 0)), (), ())  # not increasing


def test_stretched_configuration_is_shared_per_spec():
    diag = enumerate_diagrams(T3_G0)[0]
    first, second = enumerate_markings(diag, T3_G0)[:2]
    _, cfg1 = realize_stretched(diag, first, T3_G0, seed=2)
    _, cfg2 = realize_stretched(diag, second, T3_G0, seed=2)
    assert cfg1 is cfg2
    assert stretch_points(T3_G0, 2, 50) is stretch_points(T3_G0, 2, 50)
    assert stretch_points(T3_G0, 2, 50) != stretch_points(T3_G0, 3, 50)


def test_realize_line():
    diag = enumerate_diagrams(T1)[0]
    marking = enumerate_markings(diag, T1)[0]
    cfg = stretch_points(T1, seed=0)
    realization = realize(diag, marking, cfg, T1)
    assert not verify_realization(realization, diag, marking, cfg, T1)
    for pt in cfg.points:
        assert points_on_curve(realization.curve, _integral_frame([pt]))[0]
    assert tropical_multiplicity(realization.curve) == 1


def test_realize_genus1_cubic_decomposition():
    diags = enumerate_diagrams(T3_G1)
    assert len(diags) == 1
    diag = diags[0]
    marking = enumerate_markings(diag, T3_G1)[0]
    realization, cfg = realize_stretched(diag, marking, T3_G1, seed=1)
    assert not verify_realization(realization, diag, marking, cfg, T3_G1)
    # floor decomposition combinatorics: 3 floors, a doubled finite elevator
    # forming the cycle, 3 down tails
    back = floor_decompose(realization.curve, (0, 1))
    assert len(back.floors) == 3
    assert len(back.floor_data[2]) == 3
    assert len(back.floor_data[3]) == 3
    assert back.genus() == 1
    pair_counts = {}
    for s, t, _ in back.floor_data[2]:
        pair_counts[(s, t)] = pair_counts.get((s, t), 0) + 1
    assert sorted(pair_counts.values()) == [1, 2]
    assert tropical_multiplicity(realization.curve) == 1 == count(T3_G1)


def test_realize_all_cubic_classes():
    total = 0
    classes = 0
    for diag in enumerate_diagrams(T3_G0):
        for marking in enumerate_markings(diag, T3_G0):
            realization, cfg = realize_stretched(diag, marking, T3_G0, seed=4)
            assert not verify_realization(realization, diag, marking, cfg, T3_G0)
            total += tropical_multiplicity(realization.curve)
            classes += 1
    assert classes == 9
    assert total == 12 == count(T3_G0)


def test_realized_floor_directions_pair_with_d():
    # every floor segment direction u satisfies |det(u, d)| = 1
    d = (0, 1)
    for diag in enumerate_diagrams(T3_G0):
        marking = enumerate_markings(diag, T3_G0)[0]
        realization, _ = realize_stretched(diag, marking, T3_G0, seed=9)
        for e in realization.curve.edges:
            if e.direction not in (d, (0, -1)):
                assert abs(det(e.direction, d)) == 1


def test_floor_decompose_tropical_line():
    from tropico.tropical import corner_locus, TropicalPolynomial

    line, _ = corner_locus(TropicalPolynomial.make({(0, 0): 0, (1, 0): 0, (0, 1): 0}))
    pc = ParametrizedCurve.build(
        [line.vertices[0]],
        [PEdge(0, -1, 1, r.direction) for r in line.rays],
    )
    diag = floor_decompose(pc, (0, 1))
    assert len(diag.floors) == 1
    assert len(diag.floor_data[3]) == 1
    assert len(diag.floor_data[4]) == 0
    assert diag.floors[0][1] == 0  # theta from the leftmost slope


def test_floor_decompose_pathological_elevator_loop():
    # an elevator with both ends on the same floor: decomposition returns a
    # self-loop diagram, which then fails validation (oriented cycle)
    pc = ParametrizedCurve.build(
        [(0, 0), (1, 1), (0, 2)],
        [
            PEdge(0, 1, 1, (1, 1)),
            PEdge(1, 2, 1, (-1, 1)),
            PEdge(0, 2, 1, (0, 1)),  # the elevator meeting its floor twice
            PEdge(0, -1, 1, (-1, -2)),
            PEdge(1, -1, 2, (1, 0)),
            PEdge(2, -1, 1, (-1, 2)),
        ],
    )
    assert check_balancing(pc)
    diag = floor_decompose(pc, (0, 1))
    assert len(diag.floors) == 1
    assert len(diag.floor_data[2]) == 1
    spec = DiagramSpec(diamond(), (0, 1), 1)
    assert not validate(diag, spec)


def test_verify_detects_missing_point():
    diag = enumerate_diagrams(T1)[0]
    marking = enumerate_markings(diag, T1)[0]
    cfg = stretch_points(T1, seed=0)
    realization = realize(diag, marking, cfg, T1)
    moved = PointConfig(
        cfg.direction,
        (cfg.points[0], (cfg.points[1][0] + Fraction(1, 7), cfg.points[1][1])),
        cfg.omega_minus,
        cfg.omega_plus,
    )
    violations = verify_checked(realization, diag, marking, moved, T1)
    assert any("not on the curve" in v for v in violations)


def test_verify_detects_a_wrong_diagram():
    # every T3 g=0 diagram has 3 floors, 2 finite edges and 3 tails, so a
    # marking of one labels the elements of the other; checked with a
    # marking of the other, the curve fails the round trip, and with its own
    # marking, the marking rule of the other
    diag, other = enumerate_diagrams(T3_G0)[:2]
    marking = enumerate_markings(diag, T3_G0)[0]
    realization, cfg = realize_stretched(diag, marking, T3_G0, seed=0)
    assert not verify_realization(realization, diag, marking, cfg, T3_G0)
    theirs = enumerate_markings(other, T3_G0)[0]
    violations = verify_checked(realization, other, theirs, cfg, T3_G0)
    assert "floor decomposition does not recover the diagram" in violations
    refused = diagram_module.marking_violations(other, marking, T3_G0)
    assert refused and verify_checked(realization, other, marking, cfg, T3_G0) == refused


def verify_tampered_cubic(
    tamper_edge=None, extra_edges=(), extra_positions=(), spec=T3_G0, curve=None
):
    """verify_realization on a realized T3 g=0 curve (seed 0) after an edge
    weight is raised by one, or vertices and edges are added, or the curve
    is replaced by ``curve``, or it is checked against another spec."""
    diag = enumerate_diagrams(T3_G0)[0]
    marking = enumerate_markings(diag, T3_G0)[0]
    realization, cfg = realize_stretched(diag, marking, T3_G0, seed=0)
    assert not verify_realization(realization, diag, marking, cfg, T3_G0)
    pc = realization.curve
    edges = list(pc.edges)
    if tamper_edge is not None:
        e = edges[tamper_edge]
        edges[tamper_edge] = PEdge(e.a, e.b, e.weight + 1, e.direction)
    edges += [PEdge(len(pc.positions) + a, -1, w, u) for a, w, u in extra_edges]
    if curve is None:
        curve = ParametrizedCurve.build(pc.positions + tuple(extra_positions), edges)
    r = realization
    tampered = Realization(curve, r.floors, r.elevators, r.unit, r.spec, r.diagram, r.marking)
    return pc, verify_checked(tampered, diag, marking, cfg, spec)


def test_verify_detects_an_unbalanced_curve():
    pc, violations = verify_tampered_cubic(tamper_edge=0)
    assert pc.edges[0] == PEdge(0, 1, 1, (1, 1))
    # both ends of the heavier floor piece now have |det| 2
    assert violations == ["curve is not balanced", "multiplicity 4 != edge product 1"]


def test_verify_detects_an_open_ray_circuit():
    pc, violations = verify_tampered_cubic(tamper_edge=4)
    assert pc.edges[4] == PEdge(0, -1, 1, (-1, 0))
    assert violations == [
        "curve is not balanced",
        "weighted ray circuit does not close: drift (0, -1)",
        "multiplicity 2 != edge product 1",
    ]


@pytest.mark.parametrize(
    "rays, last",
    [
        ([(1, 0), (-1, 0)], "floor decomposition does not recover the diagram"),
        ([(0, 1), (0, -1)],
         "curve has no floor decomposition: floor component 0 has no transverse piece"),
        ([(2, 1), (-2, -1)],
         "curve has no floor decomposition: (2, 1) is not a floor direction for d=(0, 1)"),
    ],
    ids=["horizontal", "vertical", "steep"],
)
def test_verify_reports_rays_that_close_but_span_no_polygon(rays, last):
    # one vertex with two opposite rays: balanced and of genus 0, but its
    # ray circuit is a segment, the vertex is not trivalent, and its floor
    # decomposition may not exist, so no check may raise
    line = ParametrizedCurve.build([(0, 0)], [(0, -1, 1, u) for u in rays])
    _, violations = verify_tampered_cubic(curve=line)
    assert violations == [f"point {i} not on the curve" for i in range(1, 9)] + [
        "ray circuit does not trace the Newton polygon",
        "source vertex 0 has valence 2",
        last,
    ]


def test_verify_detects_a_wrong_genus():
    # a T3 g=0 marking has 8 labels, one fewer than the range of T3 g=1; a
    # curve of the wrong genus is test_verify_detects_a_cycle_inside_a_floor
    _, violations = verify_tampered_cubic(spec=T3_G1)
    assert violations == [f"labels {list(range(1, 9))} are not the label range {list(range(1, 10))}"]


def test_verify_reports_labels_shifted_off_the_label_range():
    # the labels of a marking with alpha labels, moved up or down by one:
    # no label is then on its Omega line, or another tail is tested on it
    spec = DiagramSpec(triangle(3), (0, 1), 0, (), (0, 1), (), (1,))
    assert spec.label_range() == list(range(7))
    for diag in enumerate_diagrams(spec)[:3]:
        marking = enumerate_markings(diag, spec)[0]
        realization, cfg = realize_stretched(diag, marking, spec, seed=0)
        assert not verify_checked(realization, diag, marking, cfg, spec)
        for shift, got in ((1, list(range(1, 8))), (-1, list(range(-1, 6)))):
            moved = Marking(diag, marking.label_start + shift, marking.labels)
            assert verify_checked(realization, diag, moved, cfg, spec) == [
                f"labels {got} are not the label range {list(range(7))}"
            ]
            assert diagram_module.marking_violations(diag, moved, spec) == [
                f"labels {got} are not the label range {list(range(7))}"
            ]


def test_verify_detects_a_disconnected_source():
    # a tropical line far away: the genus stays 0, the rays trace T4
    far = (Fraction(1000), Fraction(1000))
    line = [(0, 1, (-1, 0)), (0, 1, (0, -1)), (0, 1, (1, 1))]
    _, violations = verify_tampered_cubic(extra_positions=[far], extra_edges=line)
    assert violations == [
        "source curve disconnected",
        "ray circuit does not trace the Newton polygon",
        "floor decomposition does not recover the diagram",
    ]


def test_verify_detects_a_cycle_inside_a_floor():
    # a second copy of a floor piece: the floor is no longer a tree, and
    # both ends of the piece have four pieces
    pc, _ = verify_tampered_cubic()
    piece = pc.edges[0]
    assert piece == PEdge(0, 1, 1, (1, 1))
    _, violations = verify_tampered_cubic(curve=ParametrizedCurve(pc.positions, pc.edges + (piece,)))
    assert violations == ["curve is not balanced", "source genus 1 != 0", "source vertex 0 has valence 4"]


def test_verify_detects_an_isolated_position():
    # a position with no edge is a component and a floor of its own
    pc, _ = verify_tampered_cubic()
    far = (Fraction(1000), Fraction(1000))
    _, violations = verify_tampered_cubic(curve=ParametrizedCurve(pc.positions + (far,), pc.edges))
    assert violations == [
        "source curve disconnected",
        "source vertex 7 has valence 0",
        "curve has no floor decomposition: floor component 3 has no transverse piece",
    ]


def test_verify_detects_rays_of_another_boundary_type():
    # T4 curves whose bottom rays weigh 1 and 3 trace the polygon of the
    # type of two rays of weight 2, and fail only its boundary pattern
    t4_b101 = DiagramSpec(triangle(4), (0, 1), 0, (), (), (), (1, 0, 1))
    t4_b02 = DiagramSpec(triangle(4), (0, 1), 0, (), (), (), (0, 2))
    diags = enumerate_diagrams(t4_b101)
    for diag in diags:
        marking = enumerate_markings(diag, t4_b101)[0]
        realization, cfg = realize_stretched(diag, marking, t4_b101, seed=0)
        assert verify_checked(realization, diag, marking, cfg, t4_b101) == []
        violations = verify_checked(realization, diag, marking, cfg, t4_b02)
        assert violations == ["bottom tail weights [1, 3] != type [2, 2]"]
    assert len(diags) == 8


def verify_edited_curve(spec, edit):
    """verify_realization on the first marked diagram of spec, realized at
    seed 0, after ``edit`` maps the list of its curve's edges to another."""
    diag = enumerate_diagrams(spec)[0]
    marking = enumerate_markings(diag, spec)[0]
    r, cfg = realize_stretched(diag, marking, spec, seed=0)
    curve = ParametrizedCurve.build(r.curve.positions, edit(list(r.curve.edges)))
    edited = Realization(curve, r.floors, r.elevators, r.unit, r.spec, r.diagram, r.marking)
    return verify_checked(edited, diag, marking, cfg, spec)


@pytest.mark.parametrize(
    "tail, weight, circuit",
    [
        (False, 0, []),
        (False, -1, []),
        (True, 0, ["weighted ray circuit does not close: drift (-1, 0)"]),
        (True, -1, ["weighted ray circuit does not close: drift (-2, 0)"]),
    ],
    ids=["elevator-0", "elevator-minus-1", "down-tail-0", "down-tail-minus-1"],
)
def test_verify_detects_a_nonpositive_weight(tail, weight, circuit):
    # the round trip cannot build a floor diagram with such a weight, and
    # says so instead of raising
    def edit(edges):
        i = next(i for i, e in enumerate(edges) if e.direction[0] == 0 and (e.b < 0) == tail)
        edges[i] = edges[i]._replace(weight=weight)
        return edges

    assert verify_edited_curve(T3_G1, edit) == [
        "curve is not balanced",
        *circuit,
        "curve has no floor decomposition: edge weights must be positive",
    ]


@pytest.mark.parametrize("a, b", [(0, 99), (99, -1), (-1, 0)], ids=["target", "ray", "source"])
def test_verify_detects_an_edge_to_a_missing_vertex(a, b):
    # no other check can read the source graph, so this is the only violation
    violations = verify_edited_curve(T3_G1, lambda edges: edges + [PEdge(a, b, 1, (0, 1))])
    assert violations == ["edge 18 joins a vertex that does not exist"]


def test_verify_reports_a_marking_it_cannot_read():
    # a label moved off the diagram leaves an edge unmarked, and a label
    # moved onto a labelled edge labels it twice; no other check is made
    diag = enumerate_diagrams(T3_G1)[0]
    marking = enumerate_markings(diag, T3_G1)[0]
    realization, cfg = realize_stretched(diag, marking, T3_G1, seed=0)
    assert marking.labels[7:] == (("e", 5), ("f", 2))
    cases = [
        (("e", 99), ["label 8 is on ('e', 99), not a floor or edge of the diagram", "edge 5 is unmarked"]),
        (("e", 4), ["labels 6 and 8 are both on ('e', 4)", "edge 5 is unmarked"]),
    ]
    for element, expected in cases:
        moved = Marking(diag, 1, marking.labels[:7] + (element, ("f", 2)))
        assert verify_checked(realization, diag, moved, cfg, T3_G1) == expected
        assert diagram_module.marking_violations(diag, moved, T3_G1) == expected


def test_verify_refuses_every_marking_the_marking_rule_refuses():
    # on T3 g=1, each swap of two labels of the first marking that the
    # marking rule refuses (32 of the 36), and the marking with its last
    # label (9, on floor 2) dropped: on the genuine curve the verifier
    # reports the rule's violations and nothing else
    diag = enumerate_diagrams(T3_G1)[0]
    marking = enumerate_markings(diag, T3_G1)[0]
    realization, cfg = realize_stretched(diag, marking, T3_G1, seed=0)
    refused = 0
    for i, j in itertools.combinations(range(len(marking.labels)), 2):
        labels = list(marking.labels)
        labels[i], labels[j] = labels[j], labels[i]
        swapped = Marking(diag, marking.label_start, tuple(labels))
        want = diagram_module.marking_violations(diag, swapped, T3_G1)
        if want:
            assert verify_checked(realization, diag, swapped, cfg, T3_G1) == want
            refused += 1
    assert refused == 32
    assert marking.labels[-1] == ("f", 2)
    short = Marking(diag, 1, marking.labels[:-1])
    assert verify_checked(realization, diag, short, cfg, T3_G1) == [
        f"labels {list(range(1, 9))} are not the label range {list(range(1, 10))}"
    ]


def test_verify_reports_each_tampered_marking_as_the_marking_rule_does():
    # the tampered markings of test_diagram.py, each checked on the curve
    # realized from the listed marking it was made from
    for name, (spec, marking, tampered) in tampered_markings().items():
        diag = marking.diagram
        realization, cfg = realize_stretched(diag, marking, spec, seed=0)
        assert not verify_realization(realization, diag, marking, cfg, spec)
        want = diagram_module.marking_violations(diag, tampered, spec)
        assert want and verify_checked(realization, diag, tampered, cfg, spec) == want, name


def test_verify_detects_tails_off_their_omega_lines():
    bottom = DiagramSpec(triangle(3), (0, 1), 0, (), (0, 1), (), (1,))
    top = DiagramSpec(triangle(3), (0, -1), 0, (0, 1), (), (1,), ())
    for spec, message in ((bottom, "fixed bottom tail 1"), (top, "fixed top tail 3")):
        diag = enumerate_diagrams(spec)[0]
        marking = enumerate_markings(diag, spec)[0]
        realization, cfg = realize_stretched(diag, marking, spec, seed=8)
        assert not verify_realization(realization, diag, marking, cfg, spec)
        moved = PointConfig(
            cfg.direction,
            cfg.points,
            tuple(w + Fraction(1, 3) for w in cfg.omega_minus),
            tuple(w + Fraction(1, 3) for w in cfg.omega_plus),
        )
        violations = verify_checked(realization, diag, marking, moved, spec)
        assert violations == [f"{message} off its Omega line"]


def test_verify_compares_omega_lines_across_integer_scales():
    # a realization keeps its abscissae in the integers of the frame it was
    # realized on, so a configuration of another scale is compared with it
    # by cross-multiplying: Omega lines moved by 1 keep the scale, by 1/3
    # or -2/7 they change it, and a realization written five times as fine
    # is the same realization
    spec = DiagramSpec(triangle(3), (0, 1), 0, (), (0, 1), (), (1,))
    cases = 0
    for diag, marking in _marked(spec):
        r, cfg = realize_stretched(diag, marking, spec, seed=8)
        assert r.unit == cfg.frame.scale
        finer = Realization(
            r.curve,
            tuple((f, tuple((5 * x, 5 * h) for x, h in bps), slopes) for f, bps, slopes in r.floors),
            tuple(5 * x for x in r.elevators),
            5 * r.unit,
            r.spec,
            r.diagram,
            r.marking,
        )
        assert (finer.floor_paths, finer.elevator_lines) == (r.floor_paths, r.elevator_lines)
        tail = marking.as_dict()[0][1]  # the edge of label 0, the one on an Omega line
        for realization in (r, finer):
            assert verify_checked(realization, diag, marking, cfg, spec) == []
            for shift in (1, Fraction(1, 3), Fraction(-2, 7)):
                omegas = tuple(w + shift for w in cfg.omega_minus)
                moved = PointConfig(cfg.direction, cfg.points, omegas, cfg.omega_plus)
                assert (moved.frame.scale == cfg.frame.scale) == (shift == 1)
                violations = verify_checked(realization, diag, marking, moved, spec)
                assert violations == [f"fixed bottom tail {tail} off its Omega line"]
        cases += 1
    assert cases == 7


def test_invalid_marking_rejected():
    from tropico.realize import InvalidMarking

    diag = enumerate_diagrams(T1)[0]
    marking = enumerate_markings(diag, T1)[0]
    cfg = stretch_points(T3_G0, seed=0)
    with pytest.raises(InvalidMarking):
        realize(diag, marking, cfg, T3_G0)  # diagram does not fit the spec
    # a floor and its out-edge with their labels swapped: the edge is
    # labelled below its source floor
    diag = enumerate_diagrams(T3_G1)[0]
    marking = enumerate_markings(diag, T3_G1)[0]
    labels = list(marking.labels)
    i, j = labels.index(("f", 0)), labels.index(("e", 3))
    labels[i], labels[j] = labels[j], labels[i]
    swapped = Marking(diag, marking.label_start, tuple(labels))
    with pytest.raises(InvalidMarking, match="label of edge 3 is not between"):
        realize_stretched(diag, swapped, T3_G1)
    # labels shifted below the spec's range 1..9
    shifted = Marking(diag, marking.label_start - 3, marking.labels)
    with pytest.raises(InvalidMarking, match="not the label range"):
        realize_stretched(diag, shifted, T3_G1)


T3_A11 = DiagramSpec(triangle(3), (0, 1), 0, (), (1, 1), (), ())


def test_realize_and_verify_read_the_alpha_weights():
    # on T3 a-=(1,1) the labels -1 and 0 name the Omega lines of weights 1
    # and 2; swapping them puts each fixed tail on the line of the other
    # weight, which realize refuses and the verifier reports in the same
    # words on the genuine curve
    diag = enumerate_diagrams(T3_A11)[0]
    marking = enumerate_markings(diag, T3_A11)[0]
    assert diag.edges[:2] == ((3, 0, 1), (4, 0, 2)) and marking.labels[:2] == (("e", 0), ("e", 1))
    swapped = Marking(diag, -1, marking.labels[1::-1] + marking.labels[2:])
    with pytest.raises(InvalidMarking) as info:
        realize_stretched(diag, swapped, T3_A11)
    assert str(info.value) == (
        "label -1 is not on a bottom tail of weight 1; label 0 is not on a bottom tail of weight 2"
    )
    realization, cfg = realize_stretched(diag, marking, T3_A11)
    assert verify_checked(realization, diag, marking, cfg, T3_A11) == []
    assert verify_checked(realization, diag, swapped, cfg, T3_A11) == [
        "label -1 is not on a bottom tail of weight 1",
        "label 0 is not on a bottom tail of weight 2",
    ]


def test_realize_refuses_a_configuration_that_does_not_fit_the_spec():
    # refused before any geometry: a configuration of another point count,
    # of another direction, or of another number of Omega lines
    diag = enumerate_diagrams(T3_G1)[0]
    marking = enumerate_markings(diag, T3_G1)[0]
    along_x = DiagramSpec(triangle(3), (1, 0), 1, (), (), (), (3,))
    a01_b1 = DiagramSpec(triangle(3), (0, 1), 0, (), (0, 1), (), (1,))
    fixed = enumerate_diagrams(T3_A11)[0]
    cases = (
        (diag, marking, stretch_points(T3_G0), T3_G1, ((0, 1), 0, 8, 0), ((0, 1), 0, 9, 0)),
        (diag, marking, stretch_points(along_x), T3_G1, ((1, 0), 0, 9, 0), ((0, 1), 0, 9, 0)),
        (fixed, enumerate_markings(fixed, T3_A11)[0], stretch_points(a01_b1), T3_A11,
         ((0, 1), 1, 6, 0), ((0, 1), 2, 5, 0)),
    )
    for diag, marking, cfg, spec, got, want in cases:
        with pytest.raises(RealizeError) as info:
            realize(diag, marking, cfg, spec)
        assert type(info.value) is RealizeError
        assert str(info.value) == f"configuration {got} does not fit the spec {want}"


def test_spacing_too_small_escalates():
    diag = enumerate_diagrams(T3_G1)[0]
    marking = enumerate_markings(diag, T3_G1)[0]
    tiny = stretch_points(T3_G1, seed=1, spacing=Fraction(1, 1000))
    with pytest.raises(SpacingTooSmall):
        realize(diag, marking, tiny, T3_G1)
    realization, cfg = realize_stretched(diag, marking, T3_G1, seed=1)
    assert not verify_realization(realization, diag, marking, cfg, T3_G1)


@pytest.fixture
def spacings_tried(monkeypatch):
    """The spacings that realize_stretched asks stretch_points for, with
    the stretch_points and default_spacing caches emptied before and after
    the test, which changes the default spacing."""
    tried = []

    def stretch(spec, seed=0, spacing=None):
        tried.append(spacing)
        return stretch_points(spec, seed, spacing)

    stretch_points.cache_clear()
    default_spacing.cache_clear()
    monkeypatch.setattr(importlib.import_module("tropico.realize"), "stretch_points", stretch)
    yield tried
    stretch_points.cache_clear()
    default_spacing.cache_clear()


def test_realize_stretched_doubles_a_spacing_that_is_too_small(monkeypatch, spacings_tried):
    # the true default over 4096 is too small for this curve, and so are
    # twice and four times that; realize_stretched doubles it three times
    # and the curve on eight times it verifies
    diag = enumerate_diagrams(T3_G1)[0]
    marking = enumerate_markings(diag, T3_G1)[0]
    small = default_spacing(T3_G1) / 4096
    with pytest.raises(SpacingTooSmall):
        realize(diag, marking, stretch_points(T3_G1, 1, small), T3_G1)
    monkeypatch.setattr(importlib.import_module("tropico.realize"), "default_spacing", lambda spec: small)
    realization, cfg = realize_stretched(diag, marking, T3_G1, seed=1)
    assert spacings_tried == [None, 2 * small, 4 * small, 8 * small]
    assert cfg == stretch_points(T3_G1, 1, 8 * small)
    assert not verify_realization(realization, diag, marking, cfg, T3_G1)


def test_realize_stretched_gives_up_after_the_last_doubling(monkeypatch, spacings_tried):
    # from a spacing so small that 2**MAX_DOUBLINGS times it still collides,
    # the error names the collision at the last spacing tried
    realize_module = importlib.import_module("tropico.realize")
    diag = enumerate_diagrams(T3_G1)[0]
    marking = enumerate_markings(diag, T3_G1)[0]
    tiny, doublings = Fraction(1, 10**9), realize_module.MAX_DOUBLINGS
    with pytest.raises(SpacingTooSmall) as collision:
        realize(diag, marking, stretch_points(T3_G1, 1, tiny * 2**doublings), T3_G1)
    monkeypatch.setattr(realize_module, "default_spacing", lambda spec: tiny)
    with pytest.raises(SpacingTooSmall) as info:
        realize_stretched(diag, marking, T3_G1, seed=1)
    assert spacings_tried == [None] + [tiny * 2**k for k in range(1, doublings + 1)]
    assert str(info.value) == f"no spacing found after {doublings} doublings: {collision.value}"


def test_a_configuration_gives_every_label_its_own_abscissa():
    # realize takes on trust that a floor's elevators and its marked point
    # never share an abscissa: the marking gives each element its own label,
    # and PointConfig refuses two labels of one transverse coordinate
    cfg = stretch_points(T3_A11, seed=4)
    d, e = cfg.direction, _transverse_axis(cfg.direction)
    taus = [dot(e, p) for p in cfg.points]
    assert len(cfg.omega_minus) == 2 and len(set(taus)) == len(taus)
    assert PointConfig(d, cfg.points, cfg.omega_minus, cfg.omega_plus) == cfg
    # an Omega line on a point's abscissa, two Omega lines on one, and a
    # point moved up its own line onto another point's abscissa
    on_point = (taus[3], cfg.omega_minus[1])
    twice = (cfg.omega_minus[0],) * 2
    n2 = dot(d, d)
    moved = list(cfg.points)
    h = dot(d, moved[2])
    moved[2] = tuple(h * a / n2 + taus[1] * b / n2 for a, b in zip(d, e))
    for points, omegas in ((cfg.points, on_point), (cfg.points, twice), (tuple(moved), cfg.omega_minus)):
        with pytest.raises(RealizeError, match="transverse coordinates must be pairwise distinct"):
            PointConfig(d, points, omegas, cfg.omega_plus)


def test_realize_fixed_tangency_on_omega_lines():
    spec = DiagramSpec(triangle(3), (0, 1), 0, (), (0, 1), (), (1,))
    total = 0
    for diag in enumerate_diagrams(spec):
        for marking in enumerate_markings(diag, spec):
            realization, cfg = realize_stretched(diag, marking, spec, seed=8)
            assert not verify_realization(realization, diag, marking, cfg, spec)
            total += tropical_multiplicity(realization.curve)
    Ia = nseq_Ipow(spec.alpha_minus) * nseq_Ipow(spec.alpha_plus)
    assert total == Ia * count(spec) == 20


def test_multiplicity_factorization_matches_edge_product():
    for spec in (T3_G0, OCTIC_G1):
        for diag in enumerate_diagrams(spec):
            marking = enumerate_markings(diag, spec)[0]
            realization, _ = realize_stretched(diag, marking, spec, seed=2)
            fl = set(diag.floor_ids)
            expected = 1
            for a, b, w in diag.edges:
                expected *= w * w if (a in fl and b in fl) else w
            assert tropical_multiplicity(realization.curve) == expected


def test_round_trip_recovers_diagram():
    for spec in (T3_G0, OCTIC_G1):
        for diag in enumerate_diagrams(spec):
            for marking in enumerate_markings(diag, spec):
                realization, _ = realize_stretched(diag, marking, spec, seed=6)
                back = floor_decompose(realization.curve, spec.direction)
                assert canonical_key(back) == canonical_key(diag)


def test_realize_exhaustive_small_degrees():
    # every marked class for plane degrees up to 3, all genera, passes
    for d in (1, 2, 3):
        for g in range(triangle(d).interior_points() + 1):
            spec = DiagramSpec(triangle(d), (0, 1), g, (), (), (), (d,))
            total = 0
            for diag in enumerate_diagrams(spec):
                for marking in enumerate_markings(diag, spec):
                    realization, cfg = realize_stretched(diag, marking, spec, seed=12)
                    assert not verify_realization(realization, diag, marking, cfg, spec)
                    total += tropical_multiplicity(realization.curve)
            assert total == count(spec)


def test_realize_trapezium_top_conditions():
    # fixed top tangency plus mobile bottom ones: both pipelines agree
    from tropico.lattice import trapezium

    tz = trapezium(1, 2, 1)
    spec = DiagramSpec(tz, (0, 1), 0, (1,), (), (), (3,))
    total = 0
    for diag in enumerate_diagrams(spec):
        for marking in enumerate_markings(diag, spec):
            realization, cfg = realize_stretched(diag, marking, spec, seed=5)
            assert not verify_realization(realization, diag, marking, cfg, spec)
            total += tropical_multiplicity(realization.curve)
    assert total == count(spec) == 10
    spec2 = DiagramSpec(tz, (0, 1), 1, (), (1,), (1,), (0, 1))
    total2 = 0
    for diag in enumerate_diagrams(spec2):
        for marking in enumerate_markings(diag, spec2):
            realization, cfg = realize_stretched(diag, marking, spec2, seed=6)
            assert not verify_realization(realization, diag, marking, cfg, spec2)
            total2 += tropical_multiplicity(realization.curve)
    assert total2 == count(spec2) == 2


def test_realize_general_direction():
    # same counting problem rotated by 90 degrees: d = (-1, 0)
    from tropico.lattice import LatticePolygon, perp

    rot_poly = LatticePolygon([perp(v) for v in triangle(3).vertices])
    spec = DiagramSpec(rot_poly, perp((0, 1)), 0, (), (), (), (3,))
    assert count(spec) == 12
    total = 0
    for diag in enumerate_diagrams(spec):
        for marking in enumerate_markings(diag, spec):
            realization, cfg = realize_stretched(diag, marking, spec, seed=11)
            assert not verify_realization(realization, diag, marking, cfg, spec)
            total += tropical_multiplicity(realization.curve)
    assert total == 12


def test_plane_curves_pinned():
    # sha256 of the JSON plane curves as produced by a crossing scan that
    # restarted from the first pair after every split; T4 g=0 has curves
    # whose later crossings lie on the pieces a split creates
    spec = DiagramSpec(triangle(4), (0, 1), 0, (), (), (), (4,))
    curves = []
    for diag in enumerate_diagrams(spec):
        for marking in enumerate_markings(diag, spec):
            realization, _ = realize_stretched(diag, marking, spec, seed=0)
            curve = realization.curve.to_plane_curve(newton=spec.polygon)
            curves.append(io.curve_to_json(curve))
    assert len(curves) == 303
    digest = hashlib.sha256(io.dumps(curves).encode()).hexdigest()
    assert digest == "d8d1a27b2f2f02379217ed2f286a697c5559777eceac3182d4bcd2d461b863dd"


def _realization_json_reference(realization, curve):
    """`io.realization_to_json` of a realization whose floor breakpoints and
    elevator abscissae were Fractions, each written as "p/q"."""
    unit = realization.unit

    def frac(x):
        x = Fraction(x, unit)
        return f"{x.numerator}/{x.denominator}"

    return {
        "curve": io.curve_to_json(curve),
        "floors": [
            {"floor": f, "breakpoints": [[frac(x), frac(h)] for x, h in bps], "slopes": list(slopes)}
            for f, bps, slopes in realization.floors
        ],
        "elevators": [
            {"edge": idx, "abscissa": frac(x)} for idx, x in enumerate(realization.elevators)
        ],
    }


def test_realization_json_keeps_its_bytes_on_the_corpus():
    # sha256 of the realizations' JSON as written when a Realization held
    # its floors and elevators as Fractions
    docs = []
    for spec in REALIZE_CORPUS:
        for diag, marking in _marked(spec):
            realization, _ = realize_stretched(diag, marking, spec, seed=0)
            assert all(type(v) is int for _, bps, _ in realization.floors for p in bps for v in p)
            assert all(type(x) is int for x in realization.elevators)
            curve = realization.curve.to_plane_curve(newton=spec.polygon)
            doc = io.realization_to_json(realization, curve)
            assert io.dumps(doc) == io.dumps(_realization_json_reference(realization, curve))
            docs.append(doc)
    assert len(docs) == 340
    digest = hashlib.sha256(io.dumps(docs).encode()).hexdigest()
    assert digest == "40a8cd95981656f42cb0fe782d489ce492f6eb5634f2448511c9a0a308d8532e"


def test_slope_bookkeeping_is_checked(monkeypatch):
    diag = enumerate_diagrams(T3_G0)[0]
    marking = enumerate_markings(diag, T3_G0)[0]
    # every right theta one more, in place of the diagram's cached floor data
    def shifted(self):
        lefts, rights, *rest = diagram_module._floor_data(self.floors, self.edges)
        return (lefts, tuple(right + 1 for right in rights), *rest)

    monkeypatch.setattr(FloorDiagram, "floor_data", property(shifted))
    monkeypatch.setattr(diagram_module, "validate", lambda diagram, spec: True)
    with pytest.raises(InvariantViolation, match="theta \\+ divergence"):
        realize(diag, marking, stretch_points(T3_G0), T3_G0)


def point_on_curve_brute_force(pc, point):
    """Membership of a point in the image of a parametrized curve, edge by
    edge in Fractions."""
    for e in pc.edges:
        p = pc.positions[e.a]
        u = e.direction
        r = (point[0] - p[0], point[1] - p[1])
        if u[0] * r[1] - u[1] * r[0] != 0:
            continue
        t = u[0] * r[0] + u[1] * r[1]
        if t < 0:
            continue
        if e.b < 0:
            return True
        q = pc.positions[e.b]
        tmax = u[0] * (q[0] - p[0]) + u[1] * (q[1] - p[1])
        if t <= tmax:
            return True
    return False


def points_on_curve_reference(pc, points):
    """`points_on_curve` as it was before it read the cached frames and its
    hints: it frames the positions and the points through one lcm and scans
    every edge for every point."""
    n = len(pc.positions)
    _, ints = _integral_frame(list(pc.positions) + list(points))
    pieces = []
    for e in pc.edges:
        (x, y), u = ints[e.a], e.direction
        tmax = None if e.b < 0 else u[0] * (ints[e.b][0] - x) + u[1] * (ints[e.b][1] - y)
        pieces.append((x, y, u[0], u[1], tmax))
    found = []
    for px, py in ints[n:]:
        for x, y, ux, uy, tmax in pieces:
            rx, ry = px - x, py - y
            if ux * ry != uy * rx:
                continue
            t = ux * rx + uy * ry
            if t >= 0 and (tmax is None or t <= tmax):
                found.append(True)
                break
        else:
            found.append(False)
    return found


def test_points_on_curve_match_brute_force():
    rng = random.Random(12)
    rotated = DiagramSpec(LatticePolygon([perp(v) for v in triangle(3).vertices]), perp((0, 1)),
                          0, (), (), (), (3,))
    specs = [T3_G0, T3_G1, OCTIC_G1, DiagramSpec(diamond(), (0, 1), 1), rotated,
             DiagramSpec(triangle(3), (0, 1), 0, (), (0, 1), (), (1,))]
    seen = set()
    for spec in specs:
        for diag in enumerate_diagrams(spec):
            for marking in enumerate_markings(diag, spec)[:2]:
                realization, cfg = realize_stretched(diag, marking, spec, seed=4)
                pc = realization.curve
                # marked points, vertices and segment ends, points on rays,
                # points collinear with an edge but outside it, and random
                # rationals off the curve
                cands = list(cfg.points) + list(pc.positions)
                for e in pc.edges:
                    p, u = pc.positions[e.a], e.direction
                    ts = [-1, Fraction(-1, 3), Fraction(1, 2), 2, 1000]
                    if e.b >= 0:
                        q = pc.positions[e.b]
                        far = u[0] * (q[0] - p[0]) + u[1] * (q[1] - p[1])
                        n2 = u[0] * u[0] + u[1] * u[1]
                        ts += [Fraction(far, n2), Fraction(far, n2) + Fraction(1, 5)]
                    cands += [(p[0] + t * u[0], p[1] + t * u[1]) for t in ts]
                xs = [c[0] for c in cands]
                ys = [c[1] for c in cands]
                cands += [
                    (Fraction(rng.randint(int(min(xs)) - 2, int(max(xs)) + 2) * 97 + 1, 97),
                     Fraction(rng.randint(int(min(ys)) - 2, int(max(ys)) + 2) * 89 + 1, 89))
                    for _ in range(20)
                ]
                expected = [point_on_curve_brute_force(pc, c) for c in cands]
                framed = _integral_frame(cands)
                assert points_on_curve(pc, framed) == expected
                assert points_on_curve_reference(pc, cands) == expected
                assert [points_on_curve(pc, _integral_frame([c]))[0] for c in cands[:20]] == (
                    expected[:20]
                )
                # hints, right, wrong or naming edges the curve does not
                # have, change no answer
                ne = len(pc.edges)
                hints = [rng.sample(range(ne + 3), rng.randint(0, 3)) for _ in cands]
                assert points_on_curve(pc, framed, hints) == expected
                assert points_on_curve(pc, framed, hints[: len(cands) // 2]) == expected
                seen.update(expected)
    assert seen == {True, False}
    # the far end of a segment that starts no other edge
    pc = ParametrizedCurve.build([(0, 0), (Fraction(3, 2), 3)], [PEdge(0, 1, 1, (1, 2))])
    cands = [(Fraction(3, 2), 3), (Fraction(3, 4), Fraction(3, 2)), (2, 4), (-1, -2), (0, 0)]
    for hints in ((), [[0]] * 5):
        assert points_on_curve(pc, _integral_frame(cands), hints) == [True, True, False, False,
                                                                      True]
    assert [point_on_curve_brute_force(pc, c) for c in cands] == [True, True, False, False, True]


def realize_fraction_reference(diagram, marking, cfg, spec):
    """`realize` in Fractions throughout, every abscissa and height read
    from the points of cfg: the oracle for its integer frame."""
    ok, violations = diagram_module.validate_verbose(diagram, spec)
    if not ok:
        raise InvalidMarking(f"diagram does not validate against the spec: {'; '.join(violations)}")
    d = spec.direction
    e = _transverse_axis(d)
    n2 = dot(d, d)
    labels = marking.as_dict()
    element_label = {el: lab for lab, el in labels.items()}
    s = spec.s
    lo = -sum(spec.alpha_minus) + 1

    def xi_of_point(p):
        return dot(e, p)

    def h_of_point(p):
        return dot(d, p)

    edge_xi = {}
    for idx in range(len(diagram.edges)):
        lab = element_label.get(("e", idx))
        if lab is None:
            raise InvalidMarking(f"edge {idx} is unmarked")
        if lab < 1:
            edge_xi[idx] = cfg.omega_minus[lab - lo]
        elif lab > s:
            edge_xi[idx] = cfg.omega_plus[lab - s - 1]
        else:
            edge_xi[idx] = xi_of_point(cfg.points[lab - 1])

    floors = set(diagram.floor_ids)
    sigma0 = dot(d, perp(slope_reference(d)))

    def slope_h(m):
        return sigma0 + m * n2

    floor_paths = {}
    floor_slope_seq = {}
    floor_edges = {}
    theta, div = dict(diagram.floors), dict.fromkeys(diagram.floor_ids, 0)
    for a, b, w in diagram.edges:
        div[a] = div.get(a, 0) - w
        div[b] = div.get(b, 0) + w
    for f in diagram.floor_ids:
        inc = []
        for idx, (a, b, w) in enumerate(diagram.edges):
            if a == f or b == f:
                eps = 1 if b == f else -1
                inc.append((edge_xi[idx], idx, eps, w))
        inc.sort()
        if len({x for x, *_ in inc}) != len(inc):
            raise SpacingTooSmall(f"two elevators of floor {f} share an abscissa")
        lab = element_label.get(("f", f))
        if lab is None or not 1 <= lab <= s:
            raise InvalidMarking(f"floor {f} must carry a point label")
        anchor = cfg.points[lab - 1]
        xi_a, h_a = xi_of_point(anchor), h_of_point(anchor)
        if any(x == xi_a for x, *_ in inc):
            raise SpacingTooSmall(f"marked point of floor {f} sits on an elevator")
        slopes = [theta[f]]
        for _, _, eps, w in inc:
            slopes.append(slopes[-1] + eps * w)
        if slopes[-1] != theta[f] + div[f]:
            raise RealizeError(
                f"floor {f}: slope {slopes[-1]} after its elevators != theta + divergence"
            )
        xs = [x for x, *_ in inc]
        hs = _path_heights_reference(xs, slopes, xi_a, h_a, slope_h)
        floor_paths[f] = (xs, hs)
        floor_slope_seq[f] = slopes
        floor_edges[f] = inc

    positions = []
    pedges = []
    bp_index = {}
    for f in diagram.floor_ids:
        xs, hs = floor_paths[f]
        slopes = floor_slope_seq[f]
        for k, (x, h) in enumerate(zip(xs, hs)):
            bp_index[(f, k)] = len(positions)
            positions.append(
                (Fraction(h * d[0] + x * e[0], n2), Fraction(h * d[1] + x * e[1], n2))
            )
        for k in range(len(xs) - 1):
            pedges.append(
                PEdge(bp_index[(f, k)], bp_index[(f, k + 1)], 1, slope_vector(d, slopes[k + 1]))
            )
        left = slope_vector(d, slopes[0])
        right = slope_vector(d, slopes[-1])
        pedges.append(PEdge(bp_index[(f, 0)], -1, 1, scale(left, -1)))
        pedges.append(PEdge(bp_index[(f, len(xs) - 1)], -1, 1, right))

    for idx, (a, b, w) in enumerate(diagram.edges):
        lab = element_label[("e", idx)]
        if a in floors and b in floors:
            ka = _breakpoint_at(floor_edges[a], idx)
            kb = _breakpoint_at(floor_edges[b], idx)
            ia, ib = bp_index[(a, ka)], bp_index[(b, kb)]
            ha = floor_paths[a][1][ka]
            hb = floor_paths[b][1][kb]
            if ha >= hb:
                raise SpacingTooSmall(
                    f"elevator {idx}: floors {a} and {b} are not in height order"
                )
            if 1 <= lab <= s:
                hp = h_of_point(cfg.points[lab - 1])
                if not ha < hp < hb:
                    raise SpacingTooSmall(f"elevator {idx} misses its marked point")
            pedges.append(PEdge(ia, ib, w, d))
        elif b in floors:
            kb = _breakpoint_at(floor_edges[b], idx)
            hb = floor_paths[b][1][kb]
            if 1 <= lab <= s:
                hp = h_of_point(cfg.points[lab - 1])
                if not hp < hb:
                    raise SpacingTooSmall(f"down tail {idx} misses its marked point")
            pedges.append(PEdge(bp_index[(b, kb)], -1, w, scale(d, -1)))
        else:
            ka = _breakpoint_at(floor_edges[a], idx)
            ha = floor_paths[a][1][ka]
            if 1 <= lab <= s:
                hp = h_of_point(cfg.points[lab - 1])
                if not hp > ha:
                    raise SpacingTooSmall(f"up tail {idx} misses its marked point")
            pedges.append(PEdge(bp_index[(a, ka)], -1, w, d))

    curve = ParametrizedCurve.build(positions, pedges)
    # the floors and elevators times the scale of cfg's frame, which equal
    # realize's integers only where they are integers
    unit = cfg.frame.scale
    floors_out = tuple(
        (f, tuple((x * unit, h * unit) for x, h in zip(*floor_paths[f])), tuple(floor_slope_seq[f]))
        for f in diagram.floor_ids
    )
    elevators = tuple(edge_xi[idx] * unit for idx in range(len(diagram.edges)))
    return Realization(curve, floors_out, elevators, unit, spec, diagram, marking)


def _breakpoint_at(inc, edge_idx):
    for k, (_, idx, _, _) in enumerate(inc):
        if idx == edge_idx:
            return k
    raise KeyError(edge_idx)


def _path_heights_reference(xs, slopes, xi_a, h_a, slope_h):
    if not xs:
        return []
    hs = [Fraction(0)] * len(xs)
    for k in range(1, len(xs)):
        hs[k] = hs[k - 1] + slope_h(slopes[k]) * (xs[k] - xs[k - 1])
    k = 0
    while k < len(xs) and xs[k] < xi_a:
        k += 1
    if k == 0:
        base = hs[0] + slope_h(slopes[0]) * (xi_a - xs[0])
    else:
        base = hs[k - 1] + slope_h(slopes[k]) * (xi_a - xs[k - 1])
    off = h_a - base
    return [h + off for h in hs]


def _toric(polygon, g):
    dd = direction_data(polygon, (0, 1))
    return DiagramSpec(polygon, (0, 1), g, (), (),
                       (dd.d_plus,) if dd.d_plus else (), (dd.d_minus,) if dd.d_minus else ())


# T4 g=0, then the specs of acceptance criterion 8: 340 marked diagrams
REALIZE_CORPUS = [
    DiagramSpec(triangle(4), (0, 1), 0, (), (), (), (4,)),
    T3_G0,
    DiagramSpec(triangle(3), (0, 1), 0, (), (), (), (1, 1)),
    DiagramSpec(triangle(3), (0, 1), 0, (), (0, 1), (), (1,)),
    T3_G1,
    _toric(diamond(), 0),
    _toric(octic_quadrilateral(), 1),
    _toric(octic_quadrilateral(), 0),
]


def _outcome(fn, *args):
    """fn's result, or the type and message of the RealizeError it raises."""
    try:
        return fn(*args)
    except RealizeError as exc:
        return type(exc), str(exc)


def _marked(spec):
    return [(diag, marking) for diag in enumerate_diagrams(spec)
            for marking in enumerate_markings(diag, spec)]


def test_a_plane_curve_without_a_polygon_builds_the_rays_circuit():
    # without a polygon, to_plane_curve takes the rays' circuit, which is
    # the spec's polygon up to translation; every other field is the same
    items = [(spec, diag, marking) for spec in REALIZE_CORPUS for diag, marking in _marked(spec)]
    for spec, diag, marking in items:
        pc = realize_stretched(diag, marking, spec)[0].curve
        own, given = pc.to_plane_curve(), pc.to_plane_curve(spec.polygon)
        assert given.newton == spec.polygon
        shift = tuple(b - a for a, b in zip(own.newton.vertices[0], given.newton.vertices[0]))
        assert own.newton.translate(shift) == given.newton
        for field in ("vertices", "segments", "rays", "crossings", "frame"):
            assert getattr(own, field) == getattr(given, field), (spec, field)


def test_integer_frame_matches_fraction_reference_on_the_corpus():
    items = [(spec, diag, marking) for spec in REALIZE_CORPUS for diag, marking in _marked(spec)]
    assert len(items) == 340
    for seed in range(3):
        for spec, diag, marking in items:
            cfg = stretch_points(spec, seed)
            got = realize(diag, marking, cfg, spec)
            assert got == realize_fraction_reference(diag, marking, cfg, spec)
            assert all(isinstance(c, Fraction) for p in got.curve.positions for c in p)


def test_integer_frame_matches_fraction_reference_on_hand_made_points():
    # rational points and Omega lines with denominators unlike those of
    # stretch_points, along (0, 1) and along a general direction
    rng = random.Random(31)
    rotated = DiagramSpec(LatticePolygon([perp(v) for v in triangle(3).vertices]), perp((0, 1)),
                          0, (), (), (), (3,))
    specs = [T3_G0, T3_G1, OCTIC_G1, rotated,
             DiagramSpec(triangle(3), (0, 1), 0, (), (0, 1), (), (1,))]
    outcomes = set()
    for spec in specs:
        d = spec.direction
        e = _transverse_axis(d)
        n2 = dot(d, d)
        for trial in range(3):
            gap = default_spacing(spec) * (1 if trial == 0 else 8)
            points = []
            for i in range(spec.s):
                h = gap * (i + 1) + Fraction(rng.randint(1, 50), rng.choice((3, 7, 11)))
                tau = Fraction(rng.randint(1, 996), rng.choice((997, 12, 35, 1)))
                points.append(((h * d[0] + tau * e[0]) / n2, (h * d[1] + tau * e[1]) / n2))
            omegas = [Fraction(rng.randint(-40, 40), rng.choice((5, 9, 13)))
                      for _ in range(sum(spec.alpha_minus))]
            configs = [(points, omegas)]
            if d == (0, 1):
                # plain int coordinates
                configs.append(([(rng.randint(-50, 50) + i * 1000, int(gap) * (i + 1))
                                 for i in range(spec.s)],
                                [rng.randint(-60, 60) for _ in omegas]))
            for pts, oms in configs:
                try:
                    cfg = PointConfig(d, tuple(pts), tuple(oms), ())
                except RealizeError:
                    continue
                for diag, marking in _marked(spec):
                    got = _outcome(realize, diag, marking, cfg, spec)
                    assert got == _outcome(realize_fraction_reference, diag, marking, cfg, spec)
                    outcomes.add(type(got))
    assert outcomes == {tuple, Realization}


def test_integer_frame_raises_like_the_fraction_reference_when_too_tight():
    raised = 0
    for spec in (T3_G0, T3_G1, OCTIC_G1):
        for spacing in (Fraction(1, 1000), 1, 3):
            cfg = stretch_points(spec, 1, spacing=spacing)
            for diag, marking in _marked(spec):
                got = _outcome(realize, diag, marking, cfg, spec)
                assert got == _outcome(realize_fraction_reference, diag, marking, cfg, spec)
                raised += isinstance(got, tuple)
    assert raised


def test_integer_frame_matches_fraction_reference_on_more_floors():
    # the corpus has at most 4 floors: all of T6 g=9 (6 floors) and the
    # first marked diagrams of T8 g=19 (8 floors)
    t6 = DiagramSpec(triangle(6), (0, 1), 9, (), (), (), (6,))
    t8 = DiagramSpec(triangle(8), (0, 1), 19, (), (), (), (8,))
    t8_marked = itertools.islice(
        ((diag, marking) for diag in enumerate_diagrams(t8) for marking in enumerate_markings(diag, t8)),
        60,
    )
    corpus = [(t6, _marked(t6)), (t8, list(t8_marked))]
    assert [len(items) for _, items in corpus] == [45, 60]
    for seed in range(3):
        for spec, items in corpus:
            cfg = stretch_points(spec, seed)
            for diag, marking in items:
                got = _outcome(realize, diag, marking, cfg, spec)
                assert got == _outcome(realize_fraction_reference, diag, marking, cfg, spec)


def test_round_trip_key_is_computed_once_per_diagram():
    diag = enumerate_diagrams(T3_G0)[0]
    assert diagram_module.canonical_key(diag) is diagram_module.canonical_key(diag)
    key, _, aut = diagram_module._least_forms(diag.floor_data)
    assert diag.canonical_form == (key, aut)


def test_verification_builds_one_star_map_and_no_circuit_polygon_or_key(monkeypatch):
    """verify_realization followed by tropical_multiplicity on one curve
    builds its star map (tropical._incidence) once, and neither the ray
    circuit's LatticePolygon nor a canonical key (diagram._least_forms),
    on every marked diagram of T3 g=0."""
    built = {"stars": 0, "polygons": 0, "keys": 0}
    incidence, polygon_init = tropical._incidence, LatticePolygon.__init__
    least_forms = diagram_module._least_forms

    def counted_incidence(pieces):
        built["stars"] += 1
        return incidence(pieces)

    def counted_init(self, vertices):
        built["polygons"] += 1
        polygon_init(self, vertices)

    def counted_least_forms(data):
        built["keys"] += 1
        return least_forms(data)

    cases = 0
    for diag in enumerate_diagrams(T3_G0):
        for marking in enumerate_markings(diag, T3_G0):
            realization, cfg = realize_stretched(diag, marking, T3_G0, seed=0)
            built.update(stars=0, polygons=0, keys=0)
            with monkeypatch.context() as m:
                m.setattr(tropical, "_incidence", counted_incidence)
                m.setattr(LatticePolygon, "__init__", counted_init)
                m.setattr(diagram_module, "_least_forms", counted_least_forms)
                assert not verify_realization(realization, diag, marking, cfg, T3_G0)
                tropical_multiplicity(realization.curve)
            assert built == {"stars": 1, "polygons": 0, "keys": 0}
            cases += 1
    assert cases > 0


def test_realize_and_verify_build_no_diagram_and_no_fraction_of_the_layout(monkeypatch):
    """Realizing and verifying every marked diagram of T3 g=0 builds no
    FloorDiagram, reads floor data once per curve, for its decomposition,
    since each diagram's is cached, and leaves the realization's Fraction
    views of its floors and elevators unbuilt."""
    built = {"diagrams": 0, "floor data": 0}
    post_init, floor_data = FloorDiagram.__post_init__, diagram_module._floor_data

    def counted_post_init(self):
        built["diagrams"] += 1
        post_init(self)

    def counted_floor_data(floors, edges):
        built["floor data"] += 1
        return floor_data(floors, edges)

    marked = _marked(T3_G0)
    with monkeypatch.context() as m:
        m.setattr(FloorDiagram, "__post_init__", counted_post_init)
        m.setattr(diagram_module, "_floor_data", counted_floor_data)
        for diag, marking in marked:
            realization, cfg = realize_stretched(diag, marking, T3_G0, seed=0)
            assert verify_realization(realization, diag, marking, cfg, T3_G0) == []
            assert not {"floor_paths", "elevator_lines"} & set(vars(realization))
    assert built == {"diagrams": 0, "floor data": len(marked)}


def floor_decompose_reference(pc, d):
    """`floor_decompose` as it was before it took each direction's slope
    once and gave the floor of each position."""
    n = len(pc.positions)
    elevator = []
    floorish = []
    for e in pc.edges:
        if e.direction == d or e.direction == scale(d, -1):
            elevator.append(e)
        else:
            floorish.append(e)
    roots = component_roots(range(n), [(e.a, e.b) for e in floorish if e.b >= 0])
    comp_index = {r: c for c, r in enumerate(sorted(set(roots.values())))}
    comp_of = {v: comp_index[roots[v]] for v in range(n)}
    thetas = {}
    axis = _transverse_axis(d)
    for e in floorish:
        u = e.direction if dot(axis, e.direction) > 0 else scale(e.direction, -1)
        m = slope_of(d, u)
        c = comp_of[e.a]
        if e.b < 0 and dot(axis, e.direction) < 0:
            thetas[c] = m
        thetas.setdefault(("any", c), m)
    floors = []
    for c in range(len(comp_index)):
        th = thetas.get(c, thetas.get(("any", c)))
        if th is None:
            raise RealizeError(f"floor component {c} has no transverse piece")
        floors.append((c, th))
    edges = []
    inf_minus, inf_plus = [], []
    nid = len(comp_index)
    for e in elevator:
        up = e.direction == d
        if e.b >= 0:
            a, b = (comp_of[e.a], comp_of[e.b]) if up else (comp_of[e.b], comp_of[e.a])
            edges.append((a, b, e.weight))
        elif up:
            edges.append((comp_of[e.a], nid, e.weight))
            inf_plus.append(nid)
            nid += 1
        else:
            edges.append((nid, comp_of[e.a], e.weight))
            inf_minus.append(nid)
            nid += 1
    return FloorDiagram(tuple(floors), tuple(inf_minus), tuple(inf_plus), tuple(edges))


def source_genus_and_components_reference(pc):
    """(first Betti number, number of components) of the source graph of
    pc, from a union-find over every position and bounded edge."""
    n = len(pc.positions)
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    bounded = [e for e in pc.edges if e.b >= 0]
    for e in bounded:
        parent[root(e.a)] = root(e.b)
    components = sum(parent[v] == v for v in range(n))
    return len(bounded) - n + components, components


def boundary_pattern_reference(pc, spec):
    """The violations of spec's boundary type by the weights of the rays of
    pc along -d (bottom: alpha-, beta-) and +d (top: alpha+, beta+): the
    type asks for alpha_k + beta_k rays of weight k."""
    d = spec.direction
    out = []
    for side, u, alpha, beta in (
        ("bottom", (-d[0], -d[1]), spec.alpha_minus, spec.beta_minus),
        ("top", d, spec.alpha_plus, spec.beta_plus),
    ):
        got = sorted(e.weight for e in pc.edges if e.b < 0 and e.direction == u)
        want = []
        for k in range(1, max(len(alpha), len(beta)) + 1):
            want += [k] * (sum(alpha[k - 1:k]) + sum(beta[k - 1:k]))
        if got != want:
            out.append(f"{side} tail weights {got} != type {want}")
    return out


def verify_realization_reference(realization, diagram, marking, cfg, spec):
    """`verify_realization` without its fast paths: it scans every edge for
    every point (points_on_curve_reference), builds the ray circuit's
    polygon and compares the canonical keys of the floor decomposition and
    of the diagram on every curve; the marking rule, the source genus and
    components and the boundary pattern it computes on its own."""
    pc = realization.curve
    n = len(pc.positions)
    violations = [
        f"edge {i} joins a vertex that does not exist"
        for i, e in enumerate(pc.edges)
        if not 0 <= e.a < n or e.b >= n
    ]
    # the marking rule, before any geometry: labels that are not the spec's
    # range are reported alone
    got, want = sorted(marking.as_dict()), spec.label_range()
    if got != want:
        return violations + [f"labels {got} are not the label range {want}"]
    # a marking that cannot be read: a label off the diagram's elements or
    # on one labelled already, and an edge with no label
    floors = list(diagram.floor_ids)
    elements = [("f", f) for f in floors] + [("e", i) for i in range(len(diagram.edges))]
    first = {}
    for lab, el in sorted(marking.as_dict().items()):
        if el in first:
            violations.append(f"labels {first[el]} and {lab} are both on {el!r}")
        elif el in elements:
            first[el] = lab
        else:
            violations.append(f"label {lab} is on {el!r}, not a floor or edge of the diagram")
    violations += [f"edge {i} is unmarked" for i in range(len(diagram.edges)) if ("e", i) not in first]
    # floors on point labels, edges between their floors
    s = spec.s
    violations += [f"floor {f} must carry a point label" for f in floors if not 1 <= first.get(("f", f), 0) <= s]
    for i, (a, b, _) in enumerate(diagram.edges):
        lab = first.get(("e", i))
        if lab is not None and not first.get(("f", a), -math.inf) < lab < first.get(("f", b), math.inf):
            violations.append(f"label of edge {i} is not between the labels of its floors")
    # the alpha labels, block by block upward from the least: alpha_k labels
    # of weight k, each on a tail of its side of that weight
    line_weights = [k + 1 for k, n in enumerate(spec.alpha_minus) for _ in range(n)]
    top_weights = [k + 1 for k, n in enumerate(spec.alpha_plus) for _ in range(n)]
    alpha = [(want[0] + j, w, "bottom") for j, w in enumerate(line_weights)]
    alpha += [(s + 1 + j, w, "top") for j, w in enumerate(top_weights)]
    for lab, w, side in alpha:
        el = marking.as_dict()[lab]
        a, b, weight = diagram.edges[el[1]] if el[0] == "e" and el in first else (None, None, 0)
        if weight != w or (b if side == "top" else a) in floors:
            violations.append(f"label {lab} is not on a {side} tail of weight {w}")
    if violations:
        return violations
    # then the configuration: the spec's direction, an Omega line per alpha
    # label of each side and a point per point label, or that alone
    shape = (cfg.direction, len(cfg.omega_minus), len(cfg.points), len(cfg.omega_plus))
    fit = (spec.direction, len(line_weights), s, len(top_weights))
    if shape != fit:
        return [f"configuration {shape} does not fit the spec {fit}"]
    if not check_balancing(pc):
        violations.append("curve is not balanced")
    genus, components = source_genus_and_components_reference(pc)
    if genus != spec.genus:
        violations.append(f"source genus {genus} != {spec.genus}")
    if components != 1:
        violations.append("source curve disconnected")
    for i, on in enumerate(points_on_curve_reference(pc, cfg.points)):
        if not on:
            violations.append(f"point {i + 1} not on the curve")
    try:
        circuit = _dual_polygon([(e.direction, e.weight) for e in pc.edges if e.b < 0])
        if circuit.edge_vectors() != spec.polygon.edge_vectors():
            violations.append("ray circuit does not trace the Newton polygon")
        else:
            violations += boundary_pattern_reference(pc, spec)
    except NotClosed as exc:
        violations.append(str(exc))
    except DegeneratePolygon:
        violations.append("ray circuit does not trace the Newton polygon")
    # each fixed tail on its Omega line, its weight being the marking rule's
    lo = want[0]
    elab = {el: lab for lab, el in marking.as_dict().items()}
    exi = dict(realization.elevator_lines)
    for idx in range(len(diagram.edges)):
        lab = elab[("e", idx)]
        if lab < 1 and exi[idx] != cfg.omega_minus[lab - lo]:
            violations.append(f"fixed bottom tail {idx} off its Omega line")
        if lab > s and exi[idx] != cfg.omega_plus[lab - s - 1]:
            violations.append(f"fixed top tail {idx} off its Omega line")
    try:
        mu = tropical_multiplicity(pc)
    except NotTrivalent as exc:
        violations.append(str(exc))
    else:
        expected = 1
        fl = set(diagram.floor_ids)
        for a, b, w in diagram.edges:
            expected *= w * w if (a in fl and b in fl) else w
        if mu != expected:
            violations.append(f"multiplicity {mu} != edge product {expected}")
    try:
        back = floor_decompose_reference(pc, spec.direction)
    except TropicoError as exc:
        violations.append(f"curve has no floor decomposition: {exc}")
    else:
        if canonical_key(back) != canonical_key(diagram):
            violations.append("floor decomposition does not recover the diagram")
    return violations


def verify_checked(realization, diagram, marking, cfg, spec):
    """verify_realization's violations, after checking that the reference
    gives the same list; every tampered, edited or moved input of this file
    goes through here."""
    violations = verify_realization(realization, diagram, marking, cfg, spec)
    assert violations == verify_realization_reference(realization, diagram, marking, cfg, spec)
    return violations


T3_TOP_FIXED = DiagramSpec(triangle(3), (0, -1), 0, (1, 1), (), (), ())


@pytest.mark.parametrize("spec, other, message", [
    (T3_TOP_FIXED, DiagramSpec(triangle(2), (0, -1), 0, (), (), (2,), ()),
     "configuration ((0, -1), 0, 5, 0) does not fit the spec ((0, -1), 0, 5, 2)"),
    (T3_TOP_FIXED, T3_G0,
     "configuration ((0, 1), 0, 8, 0) does not fit the spec ((0, -1), 0, 5, 2)"),
    (DiagramSpec(triangle(3), (0, 1), 0, (), (1, 1), (), ()), T3_G0,
     "configuration ((0, 1), 0, 8, 0) does not fit the spec ((0, 1), 2, 5, 0)"),
], ids=["t2-top-lines", "t3-bottom-along-0-1", "t3-bottom-lines"])
def test_verify_reports_a_configuration_that_does_not_fit_the_spec_alone(spec, other, message):
    # each curve checked against another spec's configuration: the one
    # line realize raises, not an Omega line read off another slot, points
    # reported off the curve, or an IndexError
    cfg = stretch_points(other, seed=0)
    marked = _marked(spec)
    assert len(marked) == 5
    for diag, marking in marked:
        realization, own = realize_stretched(diag, marking, spec, seed=0)
        assert verify_checked(realization, diag, marking, own, spec) == []
        assert verify_checked(realization, diag, marking, cfg, spec) == [message]
        with pytest.raises(RealizeError) as caught:
            realize(diag, marking, cfg, spec)
        assert str(caught.value) == message


def _renamed(diag, marking, perm):
    """An isomorphic copy of diag with floor f renamed perm[f] and the
    floors listed by new name, and marking renamed to match."""
    copy = FloorDiagram(
        tuple(sorted((perm[f], th) for f, th in diag.floors)),
        diag.inf_minus,
        diag.inf_plus,
        tuple((perm.get(a, a), perm.get(b, b), w) for a, b, w in diag.edges),
    )
    labels = tuple(("f", perm[x]) if kind == "f" else (kind, x) for kind, x in marking.labels)
    return copy, Marking(copy, marking.label_start, labels)


ROTATED_T3 = DiagramSpec(LatticePolygon([perp(v) for v in triangle(3).vertices]), perp((0, 1)),
                         0, (), (), (), (3,))


def test_verification_matches_the_reference():
    # every marked diagram of the realize corpus (T3 g=0 and g=1, T4 g=0, the
    # diamond, the octics) and of the rotated cubic passes both ways, and its
    # marking passes the marking rule
    curves = 0
    for spec in REALIZE_CORPUS + [ROTATED_T3]:
        for diag, marking in _marked(spec):
            assert diagram_module.marking_violations(diag, marking, spec) == []
            realization, cfg = realize_stretched(diag, marking, spec, seed=0)
            assert verify_checked(realization, diag, marking, cfg, spec) == []
            pc = realization.curve
            assert floor_decompose(pc, spec.direction) == floor_decompose_reference(pc, spec.direction)
            curves += 1
    assert curves == 340 + 9
    # a realization checked against every T3 g=0 diagram, each with a
    # marking of its own: the swapped ones fail the round trip
    diags = enumerate_diagrams(T3_G0)
    firsts = [enumerate_markings(diag, T3_G0)[0] for diag in diags]
    for diag, marking in zip(diags, firsts):
        realization, cfg = realize_stretched(diag, marking, T3_G0, seed=0)
        for other, theirs in zip(diags, firsts):
            violations = verify_checked(realization, other, theirs, cfg, T3_G0)
            assert ("floor decomposition does not recover the diagram" in violations) == (
                other is not diag
            )
    # against an isomorphic copy with its floors renamed and reordered, the
    # layout's floor map may not be an isomorphism, and the canonical keys
    # decide
    fallbacks = 0
    for spec in (T3_G0, T3_G1):
        for diag, marking in _marked(spec):
            realization, cfg = realize_stretched(diag, marking, spec, seed=0)
            split = _split(realization.curve, spec.direction)
            parts, floor_of = _decompose(split, spec.direction), split[2]
            back = diagram_module._floor_data(parts[0], parts[3])
            sizes = [len(breaks) for _, breaks, _ in realization.floors]
            assert _recovers(back, floor_of, diag, sizes)
            for perm in itertools.permutations(diag.floor_ids):
                copy, renamed = _renamed(diag, marking, dict(zip(diag.floor_ids, perm)))
                assert verify_checked(realization, copy, renamed, cfg, spec) == []
                fallbacks += not _recovers(back, floor_of, copy, sizes)
    assert fallbacks


def test_floor_decompose_builds_the_diagram_it_built_before():
    # a FloorDiagram that validates against the spec and equals the
    # reference's, whose floor data is the one the verifier compares; an
    # elevator of weight below 1 raises the reference's DiagramError
    for spec in REALIZE_CORPUS + [ROTATED_T3]:
        for diag, marking in _marked(spec):
            pc = realize_stretched(diag, marking, spec, seed=1)[0].curve
            back = floor_decompose(pc, spec.direction)
            assert type(back) is FloorDiagram and validate(back, spec)
            assert back == floor_decompose_reference(pc, spec.direction)
            parts = _decompose(_split(pc, spec.direction), spec.direction)
            assert diagram_module._floor_data(parts[0], parts[3]) == back.floor_data
    pc = realize_stretched(*_marked(T3_G1)[0], T3_G1)[0].curve
    i = next(i for i, e in enumerate(pc.edges) if e.direction == (0, 1) and e.b >= 0)
    for weight in (0, -1):
        edges = pc.edges[:i] + (pc.edges[i]._replace(weight=weight),) + pc.edges[i + 1:]
        bad = ParametrizedCurve(pc.positions, edges)
        for decompose in (floor_decompose, floor_decompose_reference):
            with pytest.raises(DiagramError, match="^edge weights must be positive$"):
                decompose(bad, (0, 1))


def _layout_edges(realization, diag, element):
    """The edges of realize's layout for a floor ("f", f), its pieces and its
    two rays, or for an elevator or tail ("e", i): the edges that the label
    of element names to verify_realization's point test."""
    sizes = [len(breaks) for _, breaks, _ in realization.floor_paths]
    starts = list(itertools.accumulate((size + 1 for size in sizes), initial=0))
    kind, x = element
    if kind == "e":
        return [starts[-1] + x]
    i = list(diag.floor_ids).index(x)
    return list(range(starts[i], starts[i + 1]))


def _on_edges(pc, indices, point):
    """Whether point lies on one of the edges of pc with these indices."""
    edges = tuple(pc.edges[j] for j in indices)
    return point_on_curve_brute_force(ParametrizedCurve(pc.positions, edges), point)


def test_verify_finds_a_point_moved_onto_a_piece_its_label_does_not_name():
    # each point in turn moved onto the middle of a segment, or onto a ray,
    # that its label does not name, where the configuration stays valid:
    # the point test misses its named pieces and the full scan finds it
    moved_points = 0
    for spec in (T3_G0, T3_G1):
        for diag, marking in _marked(spec)[:4]:
            realization, cfg = realize_stretched(diag, marking, spec, seed=0)
            pc = realization.curve
            labels = marking.as_dict()
            for i in range(len(cfg.points)):
                named = _layout_edges(realization, diag, labels[i + 1])
                for j, e in enumerate(pc.edges):
                    p, u = pc.positions[e.a], e.direction
                    if e.b >= 0:
                        q = pc.positions[e.b]
                        cands = [((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)]
                    else:
                        ts = (Fraction(1, 3), 1, 3, 30)
                        cands = [(p[0] + t * u[0], p[1] + t * u[1]) for t in ts]
                    for cand in cands:
                        points = cfg.points[:i] + (cand,) + cfg.points[i + 1:]
                        try:
                            moved = PointConfig(
                                cfg.direction, points, cfg.omega_minus, cfg.omega_plus
                            )
                        except RealizeError:
                            continue
                        if j in named or _on_edges(pc, named, cand):
                            continue
                        assert verify_checked(realization, diag, marking, moved, spec) == []
                        moved_points += 1
    assert moved_points >= 20


def test_verify_names_a_point_moved_off_the_curve():
    for spec in (T3_G0, OCTIC_G1):
        diag, marking = _marked(spec)[0]
        realization, cfg = realize_stretched(diag, marking, spec, seed=0)
        for i, (x, y) in enumerate(cfg.points):
            points = cfg.points[:i] + ((x + Fraction(1, 7), y),) + cfg.points[i + 1:]
            moved = PointConfig(cfg.direction, points, cfg.omega_minus, cfg.omega_plus)
            violations = verify_checked(realization, diag, marking, moved, spec)
            assert violations == [f"point {i + 1} not on the curve"]


def _blocks_permuted(realization, blocks, tails_first):
    """realization with its curve's floor blocks, positions and edges, in
    the order blocks, and its elevators and tails reversed and, with
    tails_first, put in front of the blocks: the same image, laid out
    otherwise than by realize."""
    pc = realization.curve
    sizes = [len(breaks) for _, breaks, _ in realization.floor_paths]
    pstarts = list(itertools.accumulate(sizes, initial=0))
    estarts = list(itertools.accumulate((size + 1 for size in sizes), initial=0))
    old_positions = [v for i in blocks for v in range(pstarts[i], pstarts[i + 1])]
    new = {v: k for k, v in enumerate(old_positions)}
    new[-1] = -1
    tails = list(range(estarts[-1], len(pc.edges)))[::-1]
    floors = [j for i in blocks for j in range(estarts[i], estarts[i + 1])]
    old_edges = tails + floors if tails_first else floors + tails
    edges = tuple(
        pc.edges[j]._replace(a=new[pc.edges[j].a], b=new[pc.edges[j].b]) for j in old_edges
    )
    curve = ParametrizedCurve(tuple(pc.positions[v] for v in old_positions), edges)
    r = realization
    return Realization(curve, r.floors, r.elevators, r.unit, r.spec, r.diagram, r.marking)


def _hints_all_wrong(realization, diag, marking, cfg):
    """Whether no point of cfg lies on an edge that its label names in
    realize's layout of realization."""
    labels = marking.as_dict()
    return not any(
        _on_edges(realization.curve, _layout_edges(realization, diag, labels[i + 1]), point)
        for i, point in enumerate(cfg.points)
    )


def test_verify_passes_a_realization_whose_floor_blocks_are_permuted():
    # the first layout of permuted blocks in which no label names an edge
    # that carries its point: every point is found by the full scan, and
    # the verdict is the reference's
    cases = 0
    for spec in REALIZE_CORPUS + [ROTATED_T3]:
        for diag, marking in _marked(spec):
            realization, cfg = realize_stretched(diag, marking, spec, seed=0)
            orders = itertools.permutations(range(len(diag.floors)))
            layouts = itertools.product(orders, (True, False))
            candidates = (_blocks_permuted(realization, *layout) for layout in layouts)
            tampered = next((t for t in candidates if _hints_all_wrong(t, diag, marking, cfg)), None)
            assert tampered is not None, f"every layout of {diag} keeps a right hint"
            assert verify_checked(tampered, diag, marking, cfg, spec) == []
            cases += 1
    assert cases == 340 + 9


def test_a_realize_item_frames_its_positions_once_and_a_configuration_its_points_once(
    monkeypatch,
):
    """Realizing, verifying, converting and drawing every marked diagram of
    T3 g=0 on one fresh configuration: realize frames each curve's positions
    from its own integers, and no call of _integral_frame frames a position
    again; the configuration's points are framed once for all the
    verifications, and once for all the drawings."""
    from tropico import render

    # the package attribute tropico.realize is the function, not the module
    realize_module = importlib.import_module("tropico.realize")
    calls_from = {"realize": realize_module, "tropical": tropical, "render": render}
    calls = {name: [] for name in calls_from}
    frame = tropical._integral_frame

    def counted(module):
        def counted_frame(points):
            calls[module].append(list(points))
            return frame(points)
        return counted_frame

    shared = stretch_points(T3_G0, 0)
    # a points tuple of its own, which no earlier drawing has framed
    points = tuple(list(shared.points))
    cfg = PointConfig(shared.direction, points, shared.omega_minus, shared.omega_plus)
    items = 0
    for diag, marking in _marked(T3_G0):
        calls["tropical"] = []
        with monkeypatch.context() as m:
            for name, module in calls_from.items():
                m.setattr(module, "_integral_frame", counted(name))
            realization = realize(diag, marking, cfg, T3_G0)
            assert verify_realization(realization, diag, marking, cfg, T3_G0) == []
            curve = realization.curve.to_plane_curve(newton=T3_G0.polygon)
            render.render_curve_svg(curve, points=cfg.points)
        # to_plane_curve frames the crossings it adds, and nothing else
        assert calls["tropical"] == [list(curve.vertices[len(realization.curve.positions):])]
        assert vars(realization.curve)["frame"] == frame(realization.curve.positions)
        items += 1
        assert calls["realize"] == [list(cfg.points)]
        assert calls["render"] == [list(cfg.points)]
    assert items == 9


def test_the_default_spacing_is_computed_once_per_spec():
    spec = DiagramSpec(triangle(4), (0, 1), 1, (), (), (), (4,))
    default_spacing.cache_clear()
    stretch_points.cache_clear()
    items = _marked(spec)
    for diag, marking in items:
        realize_stretched(diag, marking, spec)
    assert len(items) == 118 and default_spacing.cache_info().misses == 1
