"""Command-line behavior: targets, exit codes, determinism."""

import dataclasses
import json
import math
import subprocess
import sys
from xml.etree import ElementTree

import pytest

from stickknots import cli
from stickknots.cli import main
from stickknots.codes import CrossingAssignment
from stickknots.geometry import Diagram, InvalidParameterError, \
    detect_crossings
from stickknots.heights import HeightCertificate
from stickknots.render import render_svg

from conftest import near_regular_hexagon, src_env, \
    walk_from_integer_vertices


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_6gon_passes(capsys):
    code, out = run(capsys, "verify", "6gon")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["orderings"] == 120
    assert rep["class_counts"] == {"unknot": 132}


def test_verify_triple_passes(capsys):
    code, out = run(capsys, "verify", "triple")
    assert code == 0
    rep = json.loads(out)
    assert rep["kinds"] == ["trefoil", "unknot"]


def test_verify_triple_text_format(capsys):
    code, out = run(capsys, "verify", "triple", "--format", "text")
    assert code == 0
    assert out == ("target: triple\n"
                   "passed: True\n"
                   "cases: 288\n"
                   "diff: []\n"
                   'kinds: ["trefoil", "unknot"]\n'
                   "schemes: 24\n")


def test_verify_bare_selection_covers_7_to_100(capsys):
    code, out = run(capsys, "verify", "selection")
    assert code == 0
    rep = json.loads(out)
    assert rep["target"] == "selection:7-100"
    assert rep["n_range"] == [7, 100]
    assert rep["checked"] == 94
    assert rep["failing_n"] == []


def test_verify_selection_range_passes(capsys):
    code, out = run(capsys, "verify", "selection:7-12")
    assert code == 0
    rep = json.loads(out)
    assert rep["checked"] == 6
    assert rep["failing_n"] == []


def test_verify_selection_report_bytes(capsys):
    code, out = run(capsys, "verify", "selection:7-9")
    assert code == 0
    assert out == ('{\n'
                   '  "checked": 3,\n'
                   '  "diff": [],\n'
                   '  "failing_n": [],\n'
                   '  "feasible_trefoil_any": false,\n'
                   '  "n_range": [\n'
                   '    7,\n'
                   '    9\n'
                   '  ],\n'
                   '  "passed": true,\n'
                   '  "target": "selection:7-9"\n'
                   '}\n')
    code, out = run(capsys, "verify", "selection:7-9", "--format", "text")
    assert code == 0
    assert out == ("target: selection:7-9\n"
                   "passed: True\n"
                   "checked: 3\n"
                   "diff: []\n"
                   "failing_n: []\n"
                   "feasible_trefoil_any: false\n"
                   "n_range: [7, 9]\n")


def test_verify_selection_failure_reads_as_a_diff(monkeypatch, capsys):
    real = cli.cons.verify_selection

    def failing_at_8(ns, eps):
        rep = real(ns, eps=eps)
        results = tuple(
            dataclasses.replace(r, checks={**r.checks, "forced": r.n != 8})
            for r in rep.results)
        return dataclasses.replace(rep, results=results)

    monkeypatch.setattr(cli.cons, "verify_selection", failing_at_8)
    code, out = run(capsys, "verify", "selection:7-9")
    assert code == 1
    rep = json.loads(out)
    assert rep["passed"] is False
    assert rep["failing_n"] == [8]
    assert rep["diff"] == ["- expected failing_n: []",
                           "+ got      failing_n: [8]"]


def test_verify_7gon_trefoil_reports_honest_failure(capsys):
    # the projection and crossing count check out, but the strict height
    # system of the exact selection diagram has no solution; the gate fails
    # with a diff and points at a reordering that is feasible
    code, out = run(capsys, "verify", "7gon-trefoil")
    assert code == 1
    rep = json.loads(out)
    assert rep["projection"] == "trefoil"
    assert rep["crossings"] == 3
    assert rep["alternating_feasible"] is False
    assert any("alternating_feasible" in line for line in rep["diff"])
    assert rep["feasible_trefoil_ordering"] == [0, 2, 4, 1, 6, 3, 5]


def test_verify_pentagram_passes(capsys):
    code, out = run(capsys, "verify", "pentagram-51")
    assert code == 0
    rep = json.loads(out)
    assert rep["sticks"] == 8
    assert rep["plain_feasible"] is False


def test_verify_8gon_41_passes(capsys):
    code, out = run(capsys, "verify", "8gon-41")
    assert code == 0
    rep = json.loads(out)
    assert rep["ordering"] == [0, 2, 4, 7, 1, 6, 3, 5]
    assert (rep["crossings"], rep["class"], rep["feasible"]) == (
        4, "figure_eight", True)
    assert rep["certificate"]["assignment"] == rep["assignment"]
    assert rep["certificate"]["margin"] > 0


def test_verify_census_writes_its_catalog(octagon_census, monkeypatch,
                                          tmp_path, capsys):
    # the census is the session fixture's, so the suite builds it only once
    def census(n, eps):
        assert (n, eps) == (8, 1e-9)
        return octagon_census
    monkeypatch.setattr(cli.cons, "search_ngon", census)
    path = tmp_path / "census.jsonl"
    code, out = run(capsys, "verify", "8gon-census", "--catalog", str(path))
    # the census holds the {8/3} star's cinquefoils, so the gate fails
    assert code == 1
    rep = json.loads(out)
    records = octagon_census.records
    assert rep["orderings"] == len(records)
    assert rep["kinds"] == sorted(octagon_census.kind_set())
    assert rep["has_cinquefoil"] is True
    assert rep["diff"] == ["- expected has_cinquefoil: False",
                           "+ got      has_cinquefoil: True"]
    assert rep["cinquefoil_records"] == [
        r.to_json() for r in records
        if any(label.startswith("cinquefoil") for label in r.classes)]
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0] == {"n": 8, "symmetry_reduce": True, "eps": 1e-9,
                        "records": len(records)}
    assert lines[1:] == [r.to_json() for r in records]


def test_classify_trefoil_and_unknot(capsys):
    code, out = run(capsys, "classify", "--n", "7",
                    "--ordering", "0,1,3,5,6,2,4")
    assert code == 0
    rep = json.loads(out)
    assert rep["class"].startswith("trefoil")
    assert rep["determinant"] == 3

    code, out = run(capsys, "classify", "--n", "6",
                    "--ordering", "0,1,2,3,4,5")
    assert code == 0
    assert json.loads(out)["class"] == "unknot"


def test_classify_builds_one_plan(plan_builds, capsys):
    # the class, the Jones polynomial and the determinant share one plan
    code, out = run(capsys, "classify", "--n", "8",
                    "--ordering", "0,2,4,7,1,6,3,5")
    assert code == 0
    rep = json.loads(out)
    assert (rep["class"], rep["determinant"]) == ("figure_eight", 5)
    assert rep["jones"] == {"-8": 1, "-4": -1, "0": 1, "4": -1, "8": 1}
    assert len(plan_builds) == 1


def test_classify_with_feasibility(capsys):
    code, out = run(capsys, "classify", "--n", "8",
                    "--ordering", "0,2,4,7,1,6,3,5", "--feasibility")
    assert code == 0
    rep = json.loads(out)
    assert rep["class"] == "figure_eight"
    assert rep["feasible"] is True
    assert rep["certificate"]["margin"] > 0


def test_classify_an_undecided_lp_exits_2(tmp_path, capsys):
    # HiGHS ends bits 47's LP on this diagram with status Unknown
    d = near_regular_hexagon()
    assert d.n_crossings == 7
    assert not d.is_degenerate
    path = tmp_path / "hexagon.json"
    path.write_text(json.dumps(d.to_json()))
    assert main(["classify", "--input", str(path), "--assignment", "47",
                 "--feasibility"]) == 2
    assert capsys.readouterr() == (
        "", "error: linear program did not converge: Unknown\n")


#: Runs each command line of its argument through ``cli.main`` in one
#: process, and prints, after each import and each command, whether
#: ``scipy.optimize`` and scipy's HiGHS binding were loaded, with the
#: command's exit code.
_SCIPY_PROBE = """
import contextlib, io, json, sys
def loaded():
    return ["scipy.optimize" in sys.modules,
            "scipy.optimize._highspy._core" in sys.modules]
steps = []
import stickknots
steps.append(["import stickknots", *loaded()])
import stickknots.cli
steps.append(["import stickknots.cli", *loaded()])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = stickknots.cli.main(argv)
    steps.append([" ".join(argv), *loaded(), code])
print(json.dumps(steps))
"""


def test_highs_binding_loads_at_the_first_lp_without_scipy_optimize():
    # scipy.optimize's package costs far more than the HiGHS binding, so
    # it never loads; the binding loads only for a command that solves an LP
    render = ["render", "--n", "5", "--ordering", "0,3,1,4,2",
              "--assignment", "alternating"]
    classify = ["classify", "--n", "8", "--ordering", "0,2,4,7,1,6,3,5"]
    feasibility = classify + ["--feasibility"]
    res = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE,
         json.dumps([render, classify, feasibility])],
        capture_output=True, text=True, env=src_env(), timeout=120)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [
        ["import stickknots", False, False],
        ["import stickknots.cli", False, False],
        [" ".join(render), False, False, 0],
        [" ".join(classify), False, False, 0],
        [" ".join(feasibility), False, True, 0],
    ]


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["classify", "--n", "8", "--ordering", "0,2,4,7,1,6,3,5",
            "--feasibility"]
    res = subprocess.run([sys.executable, "-m", "stickknots", *argv],
                         capture_output=True, text=True, env=src_env(),
                         timeout=120)
    assert res.returncode == 0, res.stderr
    code, out = run(capsys, *argv)
    assert code == 0
    assert res.stdout == out


def test_classify_feasibility_without_crossings_writes_strict_json(capsys):
    # the empty height system's margin is infinite, which JSON cannot hold
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    argv = ["classify", "--n", "7", "--ordering", "0,1,2,3,4,5,6",
            "--feasibility"]
    code, out = run(capsys, *argv)
    assert code == 0
    cert = json.loads(out, parse_constant=refuse)["certificate"]
    code, out = run(capsys, *argv, "--format", "text")
    assert code == 0
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    assert json.loads(fields["certificate"], parse_constant=refuse) == cert
    assert cert["margin"] is None
    back = HeightCertificate.from_json(cert)
    assert back.margin == math.inf
    assert back.to_json(CrossingAssignment(())) == cert


def test_classify_degenerate_input_reports_degeneracies(tmp_path, capsys):
    verts = [(0, 0), (4, 0), (4, 2), (3, 0), (1, 0), (1, 2), (0, 2)]
    d = detect_crossings(walk_from_integer_vertices(verts))
    assert d.is_degenerate
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(d.to_json()))
    code, out = run(capsys, "classify", "--input", str(path))
    assert code == 1
    rep = json.loads(out)
    assert rep["degenerate"] is True
    assert rep["degeneracies"]


def test_classify_without_an_alternating_assignment_exits_2(capsys):
    assert main(["classify", "--n", "9",
                 "--ordering", "0,1,2,7,5,8,3,6,4"]) == 2
    assert capsys.readouterr().err == (
        "error: diagram has no alternating assignment\n")


def test_classify_a_polynomial_without_an_integer_determinant_exits_2(capsys):
    # this clean class has a triple point; bits 113 give a Jones polynomial
    # with |V(-1)| = sqrt(13), which no knot's determinant equals
    assert main(["classify", "--n", "9", "--ordering", "0,1,2,7,5,8,3,6,4",
                 "--assignment", "113"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: determinant 3.6055") and err.count("\n") == 1


def test_render_alternating_on_a_degenerate_diagram_exits_2(capsys):
    # this 7-gon ordering leaves a contact unresolved: it has no alternating
    # assignment to draw, but integer bits still draw it
    argv = ["render", "--n", "7", "--ordering", "0,1,4,6,2,5,3"]
    assert main(argv + ["--assignment", "alternating"]) == 2
    assert capsys.readouterr().err == (
        "error: diagram has unresolved degeneracies; refusing to code it\n")
    assert main(argv + ["--assignment", "0"]) == 0


def test_render_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    for out in (out1, out2):
        code = main(["render", "--n", "5", "--ordering", "0,3,1,4,2",
                     "--assignment", "alternating", "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("<?xml")


def test_render_walk_that_collapses_to_a_point(capsys):
    # 0,2,1,3 on the square retraces onto itself, and the collapsed walk is
    # one zero-length edge: drawing it must not divide by that length
    code, out = run(capsys, "render", "--n", "4", "--ordering", "0,2,1,3",
                    "--assignment", "0")
    assert code == 0
    root = ElementTree.fromstring(out)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert len(list(root.iter("{http://www.w3.org/2000/svg}line"))) == 1


def test_render_escapes_label_text(tmp_path):
    out = tmp_path / "labels.svg"
    assert main(["render", "--n", "5", "--ordering", "0,3,1,4,2",
                 "--labels", "0:a<b&c", "--out", str(out)]) == 0
    root = ElementTree.parse(out).getroot()
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts[0] == "0:a<b&c"


def test_render_rejects_labels_outside_the_walk(tmp_path, capsys):
    for labels in ("99:L", "-1:X", "5:L"):
        assert main(["render", "--n", "5", "--ordering", "0,3,1,4,2",
                     "--labels", labels,
                     "--out", str(tmp_path / "x.svg")]) == 2
    assert "outside 0..4" in capsys.readouterr().err


def test_report_file_byte_identical(tmp_path):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for p in paths:
        assert main(["verify", "triple", "--out", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["verify", "no-such-target"]) == 2
    assert main(["classify"]) == 2
    capsys.readouterr()
    for eps in ("-1", "0", "nan", "inf", "1e-16"):
        assert main(["verify", "6gon", "--eps", eps]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert main(["classify", "--n", "7", "--ordering", "0,1,3,5,6,2,4",
                 "--assignment", "0", "--eps", "nan"]) == 2
    assert main(["frobnicate"]) == 2
    # only the census writes a catalog; any other target refuses the option
    catalog = tmp_path / "x.jsonl"
    capsys.readouterr()
    assert main(["verify", "6gon", "--catalog", str(catalog)]) == 2
    assert capsys.readouterr().err == \
        "error: --catalog applies only to verify 8gon-census\n"
    assert not catalog.exists()
    # selection takes no suffix or exactly :LO-HI with 7 <= LO <= HI
    for target in ("selection:10-8", "selectionXYZ:12-12", "selection:9"):
        assert main(["verify", target]) == 2
    # the 7-gon ordering has 3 crossings, so its assignments are 0..7
    for command in ("classify", "render"):
        for bits in ("99", "-1"):
            assert main([command, "--n", "7", "--ordering", "0,2,4,1,6,3,5",
                         "--assignment", bits]) == 2
    assert "out of range" in capsys.readouterr().err
    # a label item needs VERTEX:TEXT with an integer vertex
    for item in ("0", "x:L"):
        assert main(["render", "--n", "5", "--ordering", "0,3,1,4,2",
                     "--labels", item]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "--labels" in err and repr(item) in err


def test_format_applies_to_reports_only(capsys):
    # verify and classify write json or text reports; render writes SVG
    assert main(["verify", "6gon", "--format", "svg"]) == 2
    assert "argument --format: invalid choice" in capsys.readouterr().err
    assert main(["render", "--n", "5", "--ordering", "0,3,1,4,2",
                 "--format", "json"]) == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


def test_malformed_input_diagram_exits_2(tmp_path, capsys):
    # a missing field; a crossing on edge 7 of a 3-edge walk; a crossing on
    # edge 0, from (0, 0) to (0, 0), whose gap render would divide by; and
    # a degeneracy whose resolution is none of the four, so it read as clean
    triangle = [[0, 0], [1, 0], [0, 1], [0, 0]]
    crossing = {"edge_a": 0, "edge_b": 7, "t_a": 0.5, "t_b": 0.5,
                "point": [0.5, 0.0], "sign": 1}
    cases = {
        "empty.json": ({}, "malformed diagram JSON"),
        "bad_edge.json": ({"vertices": triangle, "crossings": [crossing]},
                          "outside 0..2"),
        "zero_edge.json": ({"vertices": [[0, 0]] + triangle,
                            "crossings": [{**crossing, "edge_b": 2}]},
                           "zero-length edge"),
        "unresolved.json": ({"vertices": triangle, "crossings": [],
                             "degeneracies": [{
                                 "kind": "vertex_on_edge", "involved": [0, 1],
                                 "resolution": "Unresolved"}]},
                            "resolution 'Unresolved'"),
    }
    for name, (obj, message) in cases.items():
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        for command in ("classify", "render"):
            assert main([command, "--input", str(path),
                         "--assignment", "0"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err


def test_render_refuses_a_drawing_size_that_overflows(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "vertices": [[0, 0], [1e308, 0], [1e308, 1e308], [0, 0]],
        "crossings": []}))
    assert main(["render", "--input", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: drawing size inf x inf is not finite\n")
    d = Diagram.from_json(json.loads(path.read_text()))
    with pytest.raises(InvalidParameterError, match="not finite"):
        render_svg(d)
