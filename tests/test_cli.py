import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tropico
from tropico import diagram as diagram_mod
from tropico import io as io_mod
from tropico import tropical
from tropico.cli import cmd
from tropico.diagram import enumerate_diagrams, enumerate_markings
from tropico.lattice import InvariantViolation, LatticeError, NotTransverse, diamond, triangle
from tropico.peel import DiagramError, DiagramSpec
from tropico.realize import InvalidMarking, RealizeError
from tropico.render import RenderStyle, render_curve_svg
from tropico.tropical import TropicalPolynomial, corner_locus


@pytest.fixture
def files(tmp_path):
    t3 = tmp_path / "t3.json"
    t3.write_text(json.dumps({"vertices": [[0, 0], [3, 0], [0, 3]]}))
    dm = tmp_path / "diamond.json"
    dm.write_text(json.dumps({"vertices": [[0, 1], [1, 0], [2, 1], [1, 2]]}))
    line = tmp_path / "line.json"
    line.write_text(
        json.dumps(
            {
                "terms": [
                    {"i": [0, 0], "a": "0/1"},
                    {"i": [1, 0], "a": "0/1"},
                    {"i": [0, 1], "a": "0/1"},
                ]
            }
        )
    )
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": [[0, 0], [2, 1], [1, 2]]}))
    return tmp_path


def test_count_stdout(files, capsys):
    rc = cmd(
        [
            "count",
            "--polygon",
            str(files / "t3.json"),
            "--genus",
            "0",
            "--beta-minus",
            "3",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip() == "12"


def test_count_diamond_default_type(files, capsys):
    rc = cmd(["count", "--polygon", str(files / "diamond.json"), "--genus", "0"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "4"


def test_count_lists_no_diagram_without_explain(files, capsys, monkeypatch):
    def listing(spec):
        raise RuntimeError("count listed diagrams")

    monkeypatch.setattr("tropico.diagram.enumerate_diagrams", listing)
    rc = cmd(["count", "--polygon", str(files / "t3.json"), "--genus", "0", "--beta-minus", "3"])
    assert rc == 0
    assert capsys.readouterr().out == "12\n"


def test_count_explain_table_on_stderr(files, capsys):
    rc = cmd(
        [
            "count",
            "--polygon",
            str(files / "t3.json"),
            "--genus",
            "0",
            "--beta-minus",
            "3",
            "--explain",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.strip() == "12"
    assert "classes" in captured.err


def test_polygon_report_keys(files, capsys):
    rc = cmd(["polygon", "report", str(files / "t3.json")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"double_area", "interior", "boundary", "p_a", "singularities"}
    assert report["double_area"] == 9
    assert report["p_a"] == 1
    assert report["singularities"] == [[1, 0]] * 3


def test_domain_error_exit_code(files, capsys):
    # the cubic-surface triangle is transverse to no direction: domain error
    rc = cmd(
        [
            "count",
            "--polygon",
            str(files / "bad.json"),
            "--genus",
            "0",
            "--beta-minus",
            "3",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert json.loads(captured.out)["error"] == "NotTransverse"


def test_malformed_polygon_file_is_an_input_error(files, capsys):
    (files / "nokey.json").write_text(json.dumps({"verts": [[0, 0], [1, 0], [0, 1]]}))
    (files / "short.json").write_text(json.dumps({"vertices": [[0, 0, 1], [1, 0], [0, 1]]}))
    (files / "garbled.json").write_text("{vertices: ")
    for name in ("nokey.json", "short.json", "garbled.json", "missing.json"):
        rc = cmd(["polygon", "report", str(files / name)])
        captured = capsys.readouterr()
        assert rc == 1, name
        assert json.loads(captured.out)["error"] == "InputError", name


def test_booleans_in_an_input_file_are_input_errors(files, capsys):
    # json reads true as True, which equals 1: a boolean vertex coordinate,
    # exponent or coefficient is refused, while 1.0 still reads as 1
    (files / "bool_vertex.json").write_text('{"vertices": [[0, 0], [true, 0], [0, true]]}')
    (files / "bool_exp.json").write_text(
        '{"terms": [{"i": [0, 0], "a": "0"}, {"i": [true, 0], "a": "0"}, {"i": [0, 1], "a": "0"}]}'
    )
    (files / "bool_coeff.json").write_text(
        '{"terms": [{"i": [0, 0], "a": true}, {"i": [1, 0], "a": "0"}, {"i": [0, 1], "a": "0"}]}'
    )
    (files / "float_vertex.json").write_text('{"vertices": [[0, 0], [1.0, 0], [0, 1.0]]}')
    for argv in (
        ["polygon", "report", str(files / "bool_vertex.json")],
        ["tropicalize", "--poly", str(files / "bool_exp.json")],
        ["tropicalize", "--poly", str(files / "bool_coeff.json")],
    ):
        assert cmd(argv) == 1, argv
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "InputError" and "True" in out["detail"], argv
    assert cmd(["polygon", "report", str(files / "float_vertex.json")]) == 0
    assert json.loads(capsys.readouterr().out)["double_area"] == 1


def test_infinity_in_an_input_file_is_an_input_error(files, capsys):
    # json.load reads Infinity as a float, and int() or Fraction() of it
    # raises OverflowError
    (files / "inf.json").write_text('{"vertices": [[0, 0], [Infinity, 0], [0, 3]]}')
    (files / "inf_exp.json").write_text(
        '{"terms": [{"i": [0, 0], "a": "0"}, {"i": [Infinity, 0], "a": "0"}, {"i": [0, 1], "a": "0"}]}'
    )
    (files / "inf_coeff.json").write_text(
        '{"terms": [{"i": [0, 0], "a": -Infinity}, {"i": [1, 0], "a": "0"}, {"i": [0, 1], "a": "0"}]}'
    )
    spec = ["--polygon", str(files / "inf.json"), "--genus", "0", "--beta-minus", "3"]
    for argv in (
        ["polygon", "report", str(files / "inf.json")],
        ["count"] + spec,
        ["diagrams"] + spec,
        ["realize"] + spec + ["--diagram", str(files / "t3.json"), "--marking", str(files / "t3.json")],
        ["tropicalize", "--poly", str(files / "inf_exp.json")],
        ["tropicalize", "--poly", str(files / "inf_coeff.json")],
    ):
        assert cmd(argv) == 1, argv
        assert json.loads(capsys.readouterr().out)["error"] == "InputError", argv


def test_bad_option_values_are_input_errors(files, capsys):
    base = ["count", "--polygon", str(files / "t3.json"), "--genus", "0"]
    for extra in (["--dir", "1"], ["--dir", "0,x"], ["--beta-minus", "x"], ["--beta-minus", "-1"]):
        assert cmd(base + extra) == 1, extra
        assert json.loads(capsys.readouterr().out)["error"] == "InputError", extra


def test_library_key_error_is_not_a_domain_error(files, monkeypatch):
    def broken(spec):
        raise KeyError("internal")

    monkeypatch.setattr("tropico.peel.count", broken)
    with pytest.raises(KeyError):
        cmd(["count", "--polygon", str(files / "t3.json"), "--genus", "0"])


def test_invariant_violation_is_not_a_domain_error(files, monkeypatch):
    # a broken identity is a bug: it propagates instead of exiting 1
    def broken_peel(spec):
        return 0

    monkeypatch.setattr("tropico.peel._peel_count", broken_peel)
    with pytest.raises(InvariantViolation):
        cmd(["count", "--polygon", str(files / "t3.json"), "--genus", "0", "--explain"])
    monkeypatch.setattr(tropical.DualSubdivision, "check_tiling", lambda self: False)
    with pytest.raises(tropical.InvariantViolation):
        cmd(["tropicalize", "--poly", str(files / "line.json")])


def test_parse_error_exit_code(files, capsys):
    assert cmd(["count", "--polygon", str(files / "t3.json")]) == 2
    capsys.readouterr()


def test_tropicalize_json_and_svg(files, tmp_path, capsys):
    svg = tmp_path / "line.svg"
    rc = cmd(
        [
            "tropicalize",
            "--poly",
            str(files / "line.json"),
            "--svg",
            str(svg),
            "--subdivision",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    data = json.loads(captured.out)
    assert len(data["rays"]) == 3
    assert data["vertices"] == [["0/1", "0/1"]]
    assert "subdivision" in data
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize("name, subdivision", [
    ("curve.svg", "curve-subdivision.svg"),
    ("curve", "curve-subdivision"),
])
def test_tropicalize_subdivision_svg_in_a_dotted_directory(files, tmp_path, capsys, name, subdivision):
    out = tmp_path / "out.d"
    out.mkdir()
    rc = cmd(["tropicalize", "--poly", str(files / "line.json"), "--subdivision",
              "--svg", str(out / name)])
    capsys.readouterr()
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([name, subdivision])
    assert (out / subdivision).read_text().startswith("<svg")


def test_json_deterministic(files, capsys):
    args = ["diagrams", "--polygon", str(files / "t3.json"), "--genus", "1",
            "--beta-minus", "3", "--markings"]
    cmd(args)
    first = capsys.readouterr().out
    cmd(args)
    second = capsys.readouterr().out
    assert first == second


def test_realize_cli_roundtrip(files, tmp_path, capsys):
    spec = DiagramSpec(triangle(3), (0, 1), 1, (), (), (), (3,))
    diag = enumerate_diagrams(spec)[0]
    marking = enumerate_markings(diag, spec)[0]
    dpath = tmp_path / "diag.json"
    mpath = tmp_path / "mark.json"
    dpath.write_text(json.dumps(io_mod.diagram_to_json(diag)))
    mpath.write_text(json.dumps(io_mod.marking_to_json(marking)))
    svg = tmp_path / "cubic.svg"
    rc = cmd(
        [
            "realize",
            "--polygon",
            str(files / "t3.json"),
            "--genus",
            "1",
            "--beta-minus",
            "3",
            "--diagram",
            str(dpath),
            "--marking",
            str(mpath),
            "--seed",
            "7",
            "--svg",
            str(svg),
            "--frame",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    data = json.loads(captured.out)
    assert len(data["floors"]) == 3
    assert len(data["elevators"]) == len(diag.edges)
    assert svg.read_text().startswith("<svg")


def test_realize_cli_rejects_marking_labels_off_the_range(files, tmp_path, capsys):
    spec = DiagramSpec(triangle(3), (0, 1), 1, (), (), (), (3,))
    diag = enumerate_diagrams(spec)[0]
    marking = io_mod.marking_to_json(enumerate_markings(diag, spec)[0])
    dpath = tmp_path / "diag.json"
    dpath.write_text(json.dumps(io_mod.diagram_to_json(diag)))
    argv = ["realize", "--polygon", str(files / "t3.json"), "--genus", "1",
            "--beta-minus", "3", "--diagram", str(dpath), "--marking", str(tmp_path / "mark.json")]
    labels = {int(k): el for k, el in marking["labels"].items()}
    # labels 1-3 and 6-11 would be renumbered 1-9 without a word
    gapped = {str(k if k <= 3 else k + 2): el for k, el in labels.items()}
    shifted = {str(k - 3): el for k, el in labels.items()}
    cases = [(marking["labels"], None), (gapped, "InputError"),
             ({**marking["labels"], "x": "f0"}, "InputError"), (shifted, "InvalidMarking")]
    for data, error in cases:
        (tmp_path / "mark.json").write_text(json.dumps({"labels": data}))
        assert cmd(argv) == (1 if error else 0), data
        out = capsys.readouterr().out
        if error:
            assert json.loads(out)["error"] == error


def test_realize_cli_rejects_swapped_alpha_labels(files, tmp_path, capsys):
    # T3 a-=(1,1): label -1 names the Omega line of weight 1 and label 0 that
    # of weight 2; with the two swapped, each fixed tail is on the other line
    spec = DiagramSpec(triangle(3), (0, 1), 0, (), (1, 1), (), ())
    diag = enumerate_diagrams(spec)[0]
    labels = io_mod.marking_to_json(enumerate_markings(diag, spec)[0])["labels"]
    assert (labels["-1"], labels["0"]) == ("e0", "e1") and diag.edges[:2] == ((3, 0, 1), (4, 0, 2))
    (tmp_path / "diag.json").write_text(json.dumps(io_mod.diagram_to_json(diag)))
    argv = ["realize", "--polygon", str(files / "t3.json"), "--genus", "0", "--alpha-minus", "1,1",
            "--beta-minus", "",
            "--diagram", str(tmp_path / "diag.json"), "--marking", str(tmp_path / "mark.json")]
    (tmp_path / "mark.json").write_text(json.dumps({"labels": labels}))
    assert cmd(argv) == 0
    assert len(json.loads(capsys.readouterr().out)["elevators"]) == len(diag.edges)
    swapped = {**labels, "-1": "e1", "0": "e0"}
    (tmp_path / "mark.json").write_text(json.dumps({"labels": swapped}))
    assert cmd(argv) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "InvalidMarking",
        "detail": "label -1 is not on a bottom tail of weight 1;"
        " label 0 is not on a bottom tail of weight 2",
    }


def test_realize_cli_rejects_a_diagram_of_another_boundary_type(tmp_path, capsys):
    # a T4 diagram with bottom tails of weights 1 and 3 has the summed
    # weight of the type of two tails of weight 2, but not its pattern
    spec = DiagramSpec(triangle(4), (0, 1), 0, (), (), (), (1, 0, 1))
    diag = enumerate_diagrams(spec)[0]
    (tmp_path / "t4.json").write_text(json.dumps({"vertices": [[0, 0], [4, 0], [0, 4]]}))
    (tmp_path / "diag.json").write_text(json.dumps(io_mod.diagram_to_json(diag)))
    (tmp_path / "mark.json").write_text(
        json.dumps(io_mod.marking_to_json(enumerate_markings(diag, spec)[0]))
    )
    argv = ["realize", "--polygon", str(tmp_path / "t4.json"), "--genus", "0",
            "--diagram", str(tmp_path / "diag.json"), "--marking", str(tmp_path / "mark.json")]
    assert cmd([*argv, "--beta-minus", "1,0,1"]) == 0
    assert len(json.loads(capsys.readouterr().out)["elevators"]) == len(diag.edges)
    assert cmd([*argv, "--beta-minus", "0,2"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "InvalidMarking",
        "detail": "diagram does not validate against the spec: bottom tail weights [1, 3] != type [2, 2]",
    }


def test_realize_cli_rejects_diagram_values_that_are_not_integers(files, tmp_path, capsys):
    spec = DiagramSpec(triangle(3), (0, 1), 1, (), (), (), (3,))
    diag = enumerate_diagrams(spec)[0]
    (tmp_path / "mark.json").write_text(json.dumps(io_mod.marking_to_json(enumerate_markings(diag, spec)[0])))
    argv = ["realize", "--polygon", str(files / "t3.json"), "--genus", "1", "--beta-minus", "3",
            "--diagram", str(tmp_path / "diag.json"), "--marking", str(tmp_path / "mark.json")]
    good = io_mod.diagram_to_json(diag)
    string_theta = {**good, "floors": [{**good["floors"][0], "theta": "0"}, *good["floors"][1:]]}
    float_weight = {**good, "edges": [{**good["edges"][0], "w": 1.0}, *good["edges"][1:]]}
    bool_weight = {**good, "edges": [{**good["edges"][0], "w": True}, *good["edges"][1:]]}
    for data, error in ((good, None), (string_theta, "InputError"), (float_weight, "InputError"),
                        (bool_weight, "InputError")):
        (tmp_path / "diag.json").write_text(json.dumps(data))
        assert cmd(argv) == (1 if error else 0), data
        out = capsys.readouterr().out
        if error:
            assert json.loads(out)["error"] == error
            assert "must be integers" in json.loads(out)["detail"]


def test_realize_cli_svgs_pinned(files, capsys):
    # sha256 of the SVGs `tropico realize --frame` writes for every marked
    # diagram of T3 a-=(0,1) b-=(1): anticanonical frame, Omega lines and
    # point labels, as drawn by a renderer that mapped every point through
    # Fractions
    spec = DiagramSpec(triangle(3), (0, 1), 0, (), (0, 1), (), (1,))
    dpath, mpath, svg = files / "diag.json", files / "mark.json", files / "curve.svg"
    digest = hashlib.sha256()
    n = 0
    for diag in enumerate_diagrams(spec):
        for marking in enumerate_markings(diag, spec):
            dpath.write_text(json.dumps(io_mod.diagram_to_json(diag)))
            mpath.write_text(json.dumps(io_mod.marking_to_json(marking)))
            rc = cmd(["realize", "--polygon", str(files / "t3.json"), "--genus", "0",
                      "--alpha-minus", "0,1", "--beta-minus", "1", "--diagram", str(dpath),
                      "--marking", str(mpath), "--svg", str(svg), "--frame"])
            assert rc == 0
            text = svg.read_text()
            assert "stroke-dasharray" in text
            digest.update(text.encode())
            n += 1
    capsys.readouterr()
    assert n == 7
    assert digest.hexdigest() == "641c08ed9ca0e3489a4485146d97a101b1031f447bbf64d7c5e21a742e280f97"


def test_check_subcommand(capsys):
    rc = cmd(["check"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert all(v == "ok" for v in out.values())


def test_check_reports_a_domain_error_in_a_suite(monkeypatch, capsys):
    # the golden_counts suite, and it alone, runs peel.count
    def domain_error(spec):
        raise DiagramError("no such count")

    monkeypatch.setattr("tropico.peel.count", domain_error)
    assert cmd(["check"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out.pop("golden_counts") == "error: DiagramError: no such count"
    assert set(out.values()) == {"ok"}


def test_check_lets_an_invariant_violation_in_a_suite_propagate(monkeypatch):
    # a bug is not reported as an error of the suite
    def bug(spec):
        raise InvariantViolation("broken identity")

    monkeypatch.setattr("tropico.peel.count", bug)
    with pytest.raises(InvariantViolation, match="broken identity"):
        cmd(["check"])


def test_entry_point_subprocess(files):
    proc = subprocess.run(
        [sys.executable, "-m", "tropico.cli", "count", "--polygon",
         str(files / "t3.json"), "--genus", "1", "--beta-minus", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


def test_svg_deterministic():
    curve, _ = corner_locus(
        TropicalPolynomial.make({(0, 0): 0, (1, 0): 0, (0, 1): 0})
    )
    style = RenderStyle(anticanonical_frame=True)
    a = render_curve_svg(curve, style)
    b = render_curve_svg(curve, style)
    assert a == b


def test_diagram_marking_json_roundtrip():
    spec = DiagramSpec(diamond(), (0, 1), 1)
    diag = enumerate_diagrams(spec)[0]
    marking = enumerate_markings(diag, spec)[0]
    diag2 = io_mod.diagram_from_json(json.loads(json.dumps(io_mod.diagram_to_json(diag))))
    assert diag2 == diag
    marking2 = io_mod.marking_from_json(
        json.loads(json.dumps(io_mod.marking_to_json(marking))), diag2
    )
    assert marking2.labels == marking.labels
    assert marking2.label_start == marking.label_start


def test_curve_json_roundtrip():
    curve, _ = corner_locus(
        TropicalPolynomial.make({(0, 1): 0, (2, 1): 0, (1, 1): 0, (1, 2): -1, (1, 0): -1})
    )
    data = json.loads(io_mod.dumps(io_mod.curve_to_json(curve)))
    curve2 = io_mod.curve_from_json(data)
    assert curve2.vertices == curve.vertices
    assert curve2.segments == curve.segments
    assert curve2.rays == curve.rays
    assert curve2.newton == curve.newton


def python_m_tropico(argv):
    """``python -m tropico argv`` in a fresh process that imports tropico
    from this checkout."""
    src = str(Path(tropico.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-m", "tropico", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)


def marked_cubic_files(files):
    """Diagram and marking JSON files of a marked genus-1 cubic diagram,
    and the spec arguments they belong to."""
    spec = DiagramSpec(triangle(3), (0, 1), 1, (), (), (), (3,))
    diag = enumerate_diagrams(spec)[0]
    (files / "diag.json").write_text(json.dumps(io_mod.diagram_to_json(diag)))
    (files / "mark.json").write_text(
        json.dumps(io_mod.marking_to_json(enumerate_markings(diag, spec)[0]))
    )
    return ["--polygon", str(files / "t3.json"), "--genus", "1", "--beta-minus", "3",
            "--diagram", str(files / "diag.json"), "--marking", str(files / "mark.json")]


@pytest.mark.parametrize("command", ["polygon", "count", "diagrams", "realize", "tropicalize"])
def test_python_m_tropico_equals_the_in_process_command(files, capsys, command):
    conic = files / "conic.json"
    conic.write_text(io_mod.dumps(io_mod.polynomial_to_json(
        tropical.random_polynomial(random.Random(3), triangle(2)))))
    t3 = str(files / "t3.json")
    argv, written = {
        "polygon": (["polygon", "report", t3, "--probe-dirs", "2"], []),
        "count": (["count", "--polygon", t3, "--genus", "0", "--beta-minus", "3"], []),
        "diagrams": (["diagrams", "--polygon", t3, "--genus", "1", "--beta-minus", "3",
                      "--markings"], []),
        "realize": (["realize", *marked_cubic_files(files), "--seed", "7", "--frame",
                     "--svg", "{out}/curve.svg"], ["curve.svg"]),
        "tropicalize": (["tropicalize", "--poly", str(conic), "--subdivision",
                         "--svg", "{out}/curve.svg"], ["curve.svg", "curve-subdivision.svg"]),
    }[command]
    outputs = []
    for side in ("process", "in-process"):
        out = files / side
        out.mkdir()
        args = [a.format(out=out) for a in argv]
        if side == "process":
            proc = python_m_tropico(args)
            assert proc.returncode == 0, proc.stderr
            stdout = proc.stdout
        else:
            capsys.readouterr()
            assert cmd(args) == 0
            stdout = capsys.readouterr().out
        outputs.append([stdout] + [(out / name).read_text() for name in written])
    assert outputs[0] == outputs[1]
    assert outputs[0][0]


def test_python_m_tropico_reports_a_domain_error_of_each_layer(files):
    (files / "seg.json").write_text(json.dumps({"terms": [
        {"i": [0, 0], "a": "0/1"}, {"i": [1, 0], "a": "0/1"}, {"i": [2, 0], "a": "1/1"}]}))
    realize_argv = ["realize", *marked_cubic_files(files)]
    labels = json.loads((files / "mark.json").read_text())["labels"]
    (files / "mark.json").write_text(json.dumps(
        {"labels": {str(int(k) - 3): el for k, el in labels.items()}}))
    cases = [
        (["count", "--polygon", str(files / "bad.json"), "--genus", "0"],
         NotTransverse, LatticeError),
        (["polygon", "report", str(files / "missing.json")], io_mod.InputError, io_mod.InputError),
        (["tropicalize", "--poly", str(files / "seg.json")],
         tropical.SegmentSupport, tropical.TropicalError),
        (realize_argv, InvalidMarking, RealizeError),
    ]
    for argv, error, layer in cases:
        assert issubclass(error, layer)
        proc = python_m_tropico(argv)
        assert proc.returncode == 1, (argv, proc.stderr)
        assert proc.stdout.count("\n") == 1, proc.stdout
        assert json.loads(proc.stdout)["error"] == error.__name__


def test_an_unwritable_svg_path_prints_the_error_alone(files, tmp_path, capsys):
    # the SVG files are written before the result is printed, so a file that
    # cannot be written leaves stdout holding the error document alone
    spec = DiagramSpec(triangle(3), (0, 1), 1, (), (), (), (3,))
    diag = enumerate_diagrams(spec)[0]
    dpath, mpath = tmp_path / "diag.json", tmp_path / "mark.json"
    dpath.write_text(json.dumps(io_mod.diagram_to_json(diag)))
    mpath.write_text(json.dumps(io_mod.marking_to_json(enumerate_markings(diag, spec)[0])))
    svg = str(tmp_path / "missing_dir" / "x.svg")
    for argv in (
        ["tropicalize", "--poly", str(files / "line.json"), "--svg", svg],
        ["tropicalize", "--poly", str(files / "line.json"), "--svg", svg, "--subdivision"],
        ["realize", "--polygon", str(files / "t3.json"), "--genus", "1", "--beta-minus", "3",
         "--diagram", str(dpath), "--marking", str(mpath), "--svg", svg],
    ):
        assert cmd(argv) == 1, argv
        captured = capsys.readouterr()
        error = json.loads(captured.out)
        assert captured.out == json.dumps(error) + "\n", argv
        assert error["error"] == "InputError" and error["detail"].startswith(f"cannot write {svg}: ")
        assert "wrote" not in captured.err


def test_a_negative_multiplicity_option_keeps_its_input_error_bytes(files, capsys):
    argv = ["count", "--polygon", str(files / "t3.json"), "--genus", "0", "--beta-minus", "-1"]
    assert cmd(argv) == 1
    assert capsys.readouterr().out == (
        '{"error": "InputError", "detail": "bad multiplicity sequence \'-1\':'
        ' N-sequence entries must be nonnegative"}\n'
    )


def test_a_polynomial_without_terms_is_a_domain_error(files, capsys):
    (files / "empty.json").write_text('{"terms": []}')
    assert cmd(["tropicalize", "--poly", str(files / "empty.json")]) == 1
    assert capsys.readouterr().out == '{"error": "TropicalError", "detail": "empty support"}\n'


@pytest.mark.parametrize("target, broken, suite", [
    ("tropico.lattice.LatticePolygon.pick_identity", lambda poly: False, "pick_identity_100_random"),
    ("tropico.peel.count", lambda spec: 0, "golden_counts"),
    ("tropico.diagram.lemma_1_5_check", lambda diag: False, "counting_lemmas"),
    ("tropico.diagram.weighted_count_check", lambda diag, spec: False, "counting_lemmas"),
    ("tropico.tropical.check_balancing", lambda curve: False, "corner_locus_balancing_newton"),
    ("tropico.tropical.newton_polygon_of", lambda curve: None, "corner_locus_balancing_newton"),
    ("tropico.tropical.stable_intersection_generic", lambda c1, c2, seed: ([], (0, 0)), "tropical_bezout"),
    ("tropico.realize.verify_realization", lambda *args: ["broken"], "realization_roundtrip_cubic"),
])
def test_check_reports_a_failing_suite(monkeypatch, capsys, target, broken, suite):
    # each suite answers "fail" when the identity it checks breaks, and the
    # others stay "ok"
    monkeypatch.setattr(target, broken)
    assert cmd(["check"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out.pop(suite) == "fail"
    assert set(out.values()) == {"ok"}
