"""The immutable records (subclasses of `lattice.Record`): construction,
equality, hashing, repr, immutability and cached properties, class by
class."""

from fractions import Fraction

import pytest

from tropico.diagram import FloorDiagram, Marking
from tropico.lattice import DirectionData, Record, direction_data, triangle
from tropico.peel import DiagramError, DiagramSpec
from tropico.realize import PointConfig, Realization, RealizeError
from tropico.render import RenderStyle
from tropico.tropical import (
    AffinePiece,
    DualSubdivision,
    LegendreTransform,
    ParametrizedCurve,
    PlaneTropicalCurve,
    TropicalPolynomial,
    corner_locus,
    legendre_transform,
)

LINE = {(0, 0): 0, (1, 0): 0, (0, 1): 0}


def line_curve():
    rays = [(0, -1, 1, (-1, 0)), (0, -1, 1, (0, -1)), (0, -1, 1, (1, 1))]
    return ParametrizedCurve.build([(0, 0)], rays)


def line_diagram():
    return FloorDiagram(((0, 0),), (1,), (), ((1, 0, 1),))


# class -> (a function that builds a fresh record, its fields in order, its
# cached properties, its repr)
RECORDS = {
    DirectionData: (
        lambda: direction_data(triangle(1), (0, 1)),
        ("d", "D_left", "D_right", "d_plus", "d_minus", "d_height"),
        ("_thetas",),
        "DirectionData(d=(0, 1), D_left=((1, 0),), D_right=((1, 1),), d_plus=0,"
        " d_minus=1, d_height=1)",
    ),
    FloorDiagram: (
        line_diagram,
        ("floors", "inf_minus", "inf_plus", "edges"),
        ("floor_data", "canonical_form"),
        "FloorDiagram(floors=((0, 0),), inf_minus=(1,), inf_plus=(), edges=((1, 0, 1),))",
    ),
    DiagramSpec: (
        lambda: DiagramSpec(triangle(1), beta_minus=[1, 0]),
        ("polygon", "direction", "genus", "alpha_plus", "alpha_minus", "beta_plus",
         "beta_minus"),
        ("data",),
        "DiagramSpec(polygon=LatticePolygon([(0, 0), (1, 0), (0, 1)]), direction=(0, 1),"
        " genus=0, alpha_plus=(), alpha_minus=(), beta_plus=(), beta_minus=(1,))",
    ),
    Marking: (
        lambda: Marking(line_diagram(), 1, (("f", 0), ("e", 0))),
        ("diagram", "label_start", "labels"),
        (),
        "Marking(diagram=FloorDiagram(floors=((0, 0),), inf_minus=(1,), inf_plus=(),"
        " edges=((1, 0, 1),)), label_start=1, labels=(('f', 0), ('e', 0)))",
    ),
    PointConfig: (
        lambda: PointConfig((0, 1), ((Fraction(1, 3), Fraction(1)),), (Fraction(1, 2),), ()),
        ("direction", "points", "omega_minus", "omega_plus"),
        ("frame",),
        "PointConfig(direction=(0, 1), points=((Fraction(1, 3), Fraction(1, 1)),),"
        " omega_minus=(Fraction(1, 2),), omega_plus=())",
    ),
    Realization: (
        lambda: Realization(line_curve(), ((0, ((0, 1),), (0,)),), (3,), 2, None, None, None),
        ("curve", "floors", "elevators", "unit", "spec", "diagram", "marking"),
        ("floor_paths", "elevator_lines"),
        "Realization(curve=ParametrizedCurve(positions=((Fraction(0, 1), Fraction(0, 1)),),"
        " edges=(PEdge(a=0, b=-1, weight=1, direction=(-1, 0)), PEdge(a=0, b=-1, weight=1,"
        " direction=(0, -1)), PEdge(a=0, b=-1, weight=1, direction=(1, 1)))),"
        " floors=((0, ((0, 1),), (0,)),), elevators=(3,), unit=2, spec=None, diagram=None,"
        " marking=None)",
    ),
    RenderStyle: (
        lambda: RenderStyle(margin=8),
        ("width", "height", "margin", "anticanonical_frame"),
        (),
        "RenderStyle(width=480, height=480, margin=8, anticanonical_frame=False)",
    ),
    TropicalPolynomial: (
        lambda: TropicalPolynomial.make(LINE),
        ("terms",),
        (),
        "TropicalPolynomial(terms=(((0, 0), Fraction(0, 1)), ((0, 1), Fraction(0, 1)),"
        " ((1, 0), Fraction(0, 1))))",
    ),
    PlaneTropicalCurve: (
        lambda: corner_locus(TropicalPolynomial.make(LINE))[0],
        ("vertices", "segments", "rays", "crossings", "newton"),
        ("incidence",),
        "PlaneTropicalCurve(vertices=((Fraction(0, 1), Fraction(0, 1)),), segments=(),"
        " rays=(Ray(base=0, direction=(0, -1), weight=1), Ray(base=0, direction=(1, 1),"
        " weight=1), Ray(base=0, direction=(-1, 0), weight=1)), crossings=frozenset(),"
        " newton=LatticePolygon([(0, 0), (1, 0), (0, 1)]))",
    ),
    DualSubdivision: (
        lambda: corner_locus(TropicalPolynomial.make(LINE))[1],
        ("newton", "cells", "segment_dual", "ray_dual"),
        (),
        "DualSubdivision(newton=LatticePolygon([(0, 0), (1, 0), (0, 1)]),"
        " cells=(LatticePolygon([(0, 0), (1, 0), (0, 1)]),), segment_dual=(),"
        " ray_dual=(((0, 0), (1, 0)), ((1, 0), (0, 1)), ((0, 1), (0, 0))))",
    ),
    AffinePiece: (
        lambda: legendre_transform(LINE).pieces[0],
        ("gradient", "offset"),
        (),
        "AffinePiece(gradient=(0, 0), offset=Fraction(0, 1))",
    ),
    LegendreTransform: (
        lambda: LegendreTransform(legendre_transform(LINE).pieces[:1]),
        ("pieces",),
        (),
        "LegendreTransform(pieces=(AffinePiece(gradient=(0, 0), offset=Fraction(0, 1)),))",
    ),
    ParametrizedCurve: (
        line_curve,
        ("positions", "edges"),
        ("incidence", "star_census"),
        "ParametrizedCurve(positions=((Fraction(0, 1), Fraction(0, 1)),), edges=(PEdge(a=0,"
        " b=-1, weight=1, direction=(-1, 0)), PEdge(a=0, b=-1, weight=1, direction=(0, -1)),"
        " PEdge(a=0, b=-1, weight=1, direction=(1, 1))))",
    ),
}
CLASSES = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


def values(record, fields):
    return tuple(getattr(record, f) for f in fields)


@CLASSES
def test_equal_copies_are_equal_and_hash_as_their_fields(cls):
    make, fields, _, _ = RECORDS[cls]
    a, b = make(), make()
    assert type(a) is cls and isinstance(a, Record) and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(values(a, fields))


@CLASSES
def test_a_record_is_built_by_position_or_by_keyword(cls):
    make, fields, _, _ = RECORDS[cls]
    a = make()
    assert cls(*values(a, fields)) == a
    assert cls(**dict(zip(fields, values(a, fields)))) == a
    assert cls(*values(a, fields)[:1], **dict(zip(fields[1:], values(a, fields)[1:]))) == a


@CLASSES
def test_a_record_equals_no_tuple_and_no_record_of_another_class(cls):
    make, fields, _, _ = RECORDS[cls]
    a = make()
    twin_class = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(fields)})
    twin = twin_class(*values(a, fields))
    assert values(twin, fields) == values(a, fields)
    assert a != values(a, fields) and values(a, fields) != a
    assert a != twin and twin != a
    assert hash(twin) == hash(a)  # equal hashes, yet unequal


@CLASSES
def test_assignment_and_deletion_raise_attribute_error(cls):
    make, fields, _, _ = RECORDS[cls]
    a = make()
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == make()


@CLASSES
def test_the_repr_is_the_field_list(cls):
    make, _, _, text = RECORDS[cls]
    assert repr(make()) == text


@CLASSES
def test_a_cached_property_is_computed_once_and_never_compared(cls):
    make, fields, cached, _ = RECORDS[cls]
    a, b = make(), make()
    for name in cached:
        value = getattr(a, name)
        assert getattr(a, name) is value
        assert name in vars(a) and name not in vars(b)
    assert a == b and b == a
    assert hash(a) == hash(b) == hash(values(a, fields))


def test_defaults_fill_the_fields_not_given():
    assert DiagramSpec(triangle(2), beta_minus=(2,)) == DiagramSpec(
        triangle(2), (0, 1), 0, (), (), (), (2,)
    )
    assert RenderStyle() == RenderStyle(480, 480, 24, False)
    assert RenderStyle(200, anticanonical_frame=True) == RenderStyle(200, 480, 24, True)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((), {}, "missing required argument: 'floors'"),
        (((), (), (), (), ()), {}, "takes 4 positional arguments but 5 were given"),
        (((),), {"floors": ()}, "got multiple values for argument 'floors'"),
        (((), (), (), ()), {"weights": ()}, "got an unexpected keyword argument 'weights'"),
    ],
)
def test_a_wrong_call_raises_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        FloorDiagram(*args, **kwargs)


def test_post_init_checks_and_normalises_the_fields():
    spec = DiagramSpec(triangle(3), alpha_minus=[0, 1, 0], beta_minus=[1])
    assert spec.alpha_minus == (0, 1) and spec.beta_minus == (1,)
    with pytest.raises(DiagramError):
        DiagramSpec(triangle(3), genus=1.0)
    with pytest.raises(DiagramError):
        FloorDiagram(((0, 0),), (1,), (), ((1, 0, 0),))
    with pytest.raises(RealizeError):
        PointConfig((0, 1), ((Fraction(0), Fraction(2)), (Fraction(1), Fraction(1))), (), ())
    with pytest.raises(ValueError):
        RenderStyle(width=0)
