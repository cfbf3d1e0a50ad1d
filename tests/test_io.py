import json
from fractions import Fraction

import pytest

from tropico import io
from tropico.cli import cmd


def reference(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)


class Name(str):
    """A str subclass, which dumps does not write in a container's loop."""

    def __str__(self):
        return "not this"


class Count(int):
    """An int subclass, which dumps does not write in a container's loop."""

    def __repr__(self):
        return "not this"


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[], {}], "d": [{}]},
        [[[]], [{}], {"x": [[]]}],
        {"z": 1, "a": {"y": [1, 2], "b": {"c": {}}}},
        'quote " and backslash \\ and slash /',
        {'k"ey': 'v\\al', "back\\slash": "x"},
        "control \x00 \x01 \x1f \t \n \r \b \f \x7f",
        "non-ASCII: é ü ñ ☃ 𝄞 中文",
        {"é": ["ü", "☃"], "𝄞": {"中": "文"}},
        [-1, 0, -(10**40), 10**40, 2**63, -(2**63)],
        [True, False, None, {"t": True, "f": False, "n": None}],
        (1, (2, [3, (4,)]), {"t": (5, 6)}),
        [1.5, -0.0, 1e300, 0.1, float("inf"), float("-inf")],
        ["a", 1, ["b", 2, [None]], {"k": [{"deep": [1, [2, [3]]]}]}],
        # every leaf type inside lists and dicts, subclasses of str and int
        # among them
        [True, 1, "s", None, 2.5, Name("n\u00e9"), Count(7),
         [False, Count(-2), {"k": Name("v"), "b": True, "f": -1.25, "n": None, "i": 3}]],
        {"list": [Name('a"\n'), Count(0), 0.5, "x"], "deep": {"x": [[True, None], [Count(3), "é"]]},
         Name("sub"): Count(10**30), "s": Name(""), "f": [float("nan"), 1e-7]},
        [[Name("x")], [Count(1)], {"a": [Count(2), {"b": Name("y")}]}],
        "",
        0,
        None,
    ],
)
def test_dumps_equals_the_json_reference(obj):
    assert io.dumps(obj) == reference(obj)


def test_dumps_rejects_what_json_rejects():
    for bad in (Fraction(1, 2), [1, {2}], {"a": object()}):
        with pytest.raises(TypeError) as ours:
            io.dumps(bad)
        with pytest.raises(TypeError) as theirs:
            reference(bad)
        assert str(ours.value) == str(theirs.value)
    with pytest.raises(TypeError):
        io.dumps({1: "keys must be strings"})


@pytest.fixture
def files(tmp_path):
    (tmp_path / "t3.json").write_text(json.dumps({"vertices": [[0, 0], [3, 0], [0, 3]]}))
    (tmp_path / "octic.json").write_text(
        json.dumps({"vertices": [[0, 1], [1, 0], [2, 0], [3, 1], [3, 2], [2, 3], [1, 3], [0, 2]]})
    )
    (tmp_path / "conic.json").write_text(json.dumps({"terms": [
        {"i": [0, 0], "a": "0/1"}, {"i": [1, 0], "a": "1/2"}, {"i": [0, 1], "a": "-1/3"},
        {"i": [2, 0], "a": "-2/1"}, {"i": [1, 1], "a": "1/1"}, {"i": [0, 2], "a": "-5/2"},
    ]}))
    return tmp_path


def test_polynomial_reader_rejects_a_repeated_exponent():
    # a dict would keep the last coefficient, 0, where the max-plus sum is 5
    data = {"terms": [{"i": [0, 0], "a": "0"}, {"i": [1, 0], "a": "0"},
                      {"i": [0, 1], "a": "5"}, {"i": [0, 1], "a": "0"}]}
    with pytest.raises(io.InputError, match="exponent \\[0, 1\\] appears in two terms"):
        io.polynomial_from_json(data)
    data["terms"][3]["i"] = [1.0, 0]
    with pytest.raises(io.InputError, match="exponent \\[1.0, 0\\] appears in two terms"):
        io.polynomial_from_json(data)
    del data["terms"][3]
    assert dict(io.polynomial_from_json(data).terms)[(0, 1)] == 5


def test_readers_reject_infinity():
    # json.load accepts Infinity; int() and Fraction() of it raise OverflowError
    inf = float("inf")
    with pytest.raises(io.InputError, match="OverflowError"):
        io.polygon_from_json({"vertices": [[0, 0], [inf, 0], [0, 3]]})
    terms = [{"i": [0, 0], "a": "0"}, {"i": [1, 0], "a": "0"}, {"i": [0, 1], "a": "0"}]
    for bad in ({"i": [inf, 0], "a": "0"}, {"i": [1, 0], "a": -inf}):
        with pytest.raises(io.InputError, match="OverflowError"):
            io.polynomial_from_json({"terms": terms[:1] + [bad] + terms[2:]})


def _printed_objects(monkeypatch, capsys, argv):
    """Run a CLI command; return what it printed and the objects it passed
    to io.dumps."""
    seen = []
    dumps = io.dumps
    monkeypatch.setattr(io, "dumps", lambda obj: seen.append(obj) or dumps(obj))
    assert cmd(argv) == 0
    monkeypatch.undo()
    return capsys.readouterr().out, seen


def test_dumps_equals_the_json_reference_on_cli_output(files, monkeypatch, capsys):
    t3, octic = str(files / "t3.json"), str(files / "octic.json")
    diagram = files / "diagram.json"
    marking = files / "marking.json"
    out, seen = _printed_objects(monkeypatch, capsys, [
        "diagrams", "--polygon", t3, "--genus", "0", "--beta-minus", "3", "--markings"])
    entry = seen[0][0]
    diagram.write_text(reference({k: entry[k] for k in ("floors", "inf_minus", "inf_plus", "edges")}))
    marking.write_text(reference(entry["markings"][0]))
    commands = [
        ["polygon", "report", octic, "--probe-dirs", "2"],
        ["tropicalize", "--poly", str(files / "conic.json"), "--subdivision"],
        ["realize", "--polygon", t3, "--genus", "0", "--beta-minus", "3",
         "--diagram", str(diagram), "--marking", str(marking)],
    ]
    printed = [(out, seen)] + [_printed_objects(monkeypatch, capsys, argv) for argv in commands]
    for out, seen in printed:
        assert len(seen) == 1
        assert out == reference(seen[0]) + "\n"
    kinds = [set(seen[0]) if isinstance(seen[0], dict) else set(seen[0][0]) for _, seen in printed]
    assert "markings" in kinds[0]
    assert "double_area" in kinds[1]
    assert "subdivision" in kinds[2]
    assert {"curve", "floors", "elevators"} <= kinds[3]


def test_curve_reader_refuses_a_polygon_the_rays_do_not_trace():
    # a tropical line stored with the cubic triangle: a domain error, not an
    # input error, and no curve whose genus reads the wrong polygon
    from tropico.lattice import TropicoError, triangle
    from tropico.tropical import TropicalError

    rays = [{"base": 0, "dir": u, "w": 1} for u in ([-1, 0], [0, -1], [1, 1])]
    data = {"vertices": [["1/2", "-3"]], "segments": [], "rays": rays, "crossings": [],
            "newton": io.polygon_to_json(triangle(1))}
    assert io.curve_from_json(data).newton == triangle(1)
    data["newton"] = io.polygon_to_json(triangle(3))
    with pytest.raises(TropicalError, match="ray circuit does not trace the Newton polygon") as err:
        io.curve_from_json(data)
    assert isinstance(err.value, TropicoError) and not isinstance(err.value, io.InputError)


def test_curve_reader_refuses_booleans():
    # json reads true as True, which equals 1: a vertex coordinate, a segment
    # end, a ray base, a weight, a direction entry or a crossing given as a
    # boolean is refused, not read as the number it equals
    from tropico.tropical import TropicalPolynomial, corner_locus

    conic = {(0, 0): 0, (1, 0): 1, (0, 1): 1, (2, 0): 0, (1, 1): 3, (0, 2): 0}
    curve, _ = corner_locus(TropicalPolynomial.make(conic))
    data = json.loads(json.dumps(io.curve_to_json(curve)))
    assert io.curve_from_json(data) == curve
    def at(obj, path):
        for key in path:
            obj = obj[key]
        return obj

    # each of these is 0 or 1, so the boolean equals the number it replaces
    paths = [
        ("segments", 0, "from"), ("segments", 0, "to"), ("segments", 0, "w"),
        ("segments", 0, "dir", 0), ("rays", 1, "base"), ("rays", 0, "w"), ("rays", 1, "dir", 0),
    ]
    cases = [(("vertices", 0, 0), True), (("crossings",), [True])]
    cases += [(path, bool(at(data, path))) for path in paths if at(data, path) in (0, 1)]
    assert len(cases) == 9
    for path, value in cases:
        mutated = json.loads(json.dumps(data))
        at(mutated, path[:-1])[path[-1]] = value
        with pytest.raises(io.InputError, match="must not be booleans"):
            io.curve_from_json(mutated)


def test_realization_to_json_builds_the_curve_it_is_not_given():
    from tropico.diagram import enumerate_diagrams, enumerate_markings
    from tropico.lattice import triangle
    from tropico.peel import DiagramSpec
    from tropico.realize import realize_stretched

    spec = DiagramSpec(triangle(3), (0, 1), 1, (), (), (), (3,))
    diag = enumerate_diagrams(spec)[0]
    realization, _ = realize_stretched(diag, enumerate_markings(diag, spec)[0], spec)
    curve = realization.curve.to_plane_curve(newton=spec.polygon)
    assert io.realization_to_json(realization) == io.realization_to_json(realization, curve)
