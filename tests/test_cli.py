"""Command-line behavior: targets, exit codes, determinism."""

import json

from stickknots.cli import main
from stickknots.geometry import detect_crossings

from conftest import walk_from_integer_vertices


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


def test_verify_selection_range_passes(capsys):
    code, out = run(capsys, "verify", "selection:7-12")
    assert code == 0
    rep = json.loads(out)
    assert rep["checked"] == 6
    assert rep["failing_n"] == []


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


def test_classify_with_feasibility(capsys):
    code, out = run(capsys, "classify", "--n", "8",
                    "--ordering", "0,2,4,7,1,6,3,5", "--feasibility")
    assert code == 0
    rep = json.loads(out)
    assert rep["class"] == "figure_eight"
    assert rep["feasible"] is True
    assert rep["certificate"]["margin"] > 0


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


def test_render_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    for out in (out1, out2):
        code = main(["render", "--n", "5", "--ordering", "0,3,1,4,2",
                     "--assignment", "alternating", "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("<?xml")


def test_report_file_byte_identical(tmp_path):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for p in paths:
        assert main(["verify", "triple", "--out", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_usage_errors_exit_2(capsys):
    assert main(["verify", "no-such-target"]) == 2
    assert main(["classify"]) == 2
    assert main(["verify", "6gon", "--eps", "-1"]) == 2
    assert main(["frobnicate"]) == 2
    # the 7-gon ordering has 3 crossings, so its assignments are 0..7
    for command in ("classify", "render"):
        for bits in ("99", "-1"):
            assert main([command, "--n", "7", "--ordering", "0,2,4,1,6,3,5",
                         "--assignment", bits]) == 2
    assert "out of range" in capsys.readouterr().err
