"""Command-line interface.

Three subcommands tie the library together:

- ``verify``   runs one named verification gate and reports pass/fail;
- ``classify`` classifies a diagram given an ordering and assignment;
- ``render``   draws a diagram as SVG.

Exit codes: 0 the gate passed, 1 it failed, 2 usage error.  Reports are
deterministic: the same invocation produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from .geometry import (
    EPS_DEFAULT,
    Diagram,
    InvalidParameterError,
    Ordering,
    diagram_from_ordering,
    regular_ngon,
)
from .codes import CrossingAssignment, alternating_assignment, classify, \
    determinant, extract_gauss_code, gauss_to_pd, jones, diagram_writhe
from .heights import constraints_from_assignment, solve_feasibility
from . import constructions as cons
from . import triple as tri
from .render import render_svg

__all__ = ["main"]


def _emit(report: dict, fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        lines = [f"target: {report.get('target', report.get('command'))}",
                 f"passed: {report.get('passed')}"]
        for key, val in sorted(report.items()):
            if key in ("target", "command", "passed", "rows", "records"):
                continue
            lines.append(f"{key}: {json.dumps(val, sort_keys=True)}")
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _failure_diff(expected: dict, got: dict) -> list[str]:
    lines = []
    for key in sorted(expected):
        if expected[key] != got.get(key):
            lines.append(f"- expected {key}: {expected[key]}")
            lines.append(f"+ got      {key}: {got.get(key)}")
    return lines


# ---------------------------------------------------------------------------
# verify targets


def _verify_6gon(eps: float) -> dict:
    rep = cons.exhaustive_6gon_check(eps)
    expected = {"all_unknot": True, "unresolved": 0}
    got = {"all_unknot": rep.all_unknot, "unresolved": len(rep.unresolved)}
    return {
        "target": "6gon",
        "orderings": rep.orderings,
        "class_counts": dict(sorted(rep.class_counts.items())),
        **got,
        "passed": expected == got,
        "diff": _failure_diff(expected, got),
    }


def _selection_range(target: str) -> tuple[int, int]:
    """(LO, HI) of a ``selection`` or ``selection:LO-HI`` verify target."""
    if target == "selection":
        return 7, 100
    m = re.fullmatch(r"selection:([0-9]+)-([0-9]+)", target)
    if m is None or not 7 <= int(m[1]) <= int(m[2]):
        raise InvalidParameterError(
            f"verify target {target!r}: expected selection or "
            "selection:LO-HI with integers 7 <= LO <= HI")
    return int(m[1]), int(m[2])


def _verify_selection(lo: int, hi: int, eps: float) -> dict:
    rep = cons.verify_selection(range(lo, hi + 1), eps=eps)
    failing = [r.n for r in rep.results if not r.passed]
    return {
        "target": f"selection:{lo}-{hi}",
        "n_range": [lo, hi],
        "checked": len(rep.results),
        "failing_n": failing,
        "feasible_trefoil_any": any(r.feasible_trefoil for r in rep.results),
        "passed": rep.passed,
        "diff": [] if rep.passed else [f"- expected all checks to pass",
                                       f"+ got failures at n = {failing}"],
    }


def _verify_triple(eps: float) -> dict:
    del eps  # combinatorial; no tolerance involved
    rep = tri.triple_report()
    expected = {"kinds": ["trefoil", "unknot"]}
    got = {"kinds": rep["kinds"]}
    return {
        "target": "triple",
        "schemes": rep["schemes"],
        "cases": rep["cases"],
        **got,
        "passed": expected == got,
        "diff": _failure_diff(expected, got),
    }


def _verify_7gon_trefoil(eps: float) -> dict:
    ordering = cons.trefoil_selection(7)
    d = diagram_from_ordering(regular_ngon(7), ordering, eps)
    a = alternating_assignment(d)
    k = classify(d, a) if a is not None else None
    cert = None
    if a is not None:
        cert = solve_feasibility(constraints_from_assignment(d, a))
    expected = {"crossings": 3, "projection": "trefoil",
                "alternating_feasible": True}
    got = {"crossings": d.n_crossings,
           "projection": k.kind if k else None,
           "alternating_feasible": cert is not None}
    report = {
        "target": "7gon-trefoil",
        "ordering": list(ordering.perm),
        **got,
        "passed": expected == got,
        "diff": _failure_diff(expected, got),
    }
    if cert is None and a is not None:
        # The strict height system of the exact regular 7-gon selection is
        # degenerate: a positive combination of its three rows sums to zero,
        # so no strict solution exists.  A different 7-gon reordering does
        # carry feasible trefoil assignments; record it for reference.
        report["infeasibility"] = "positive combination of constraint rows vanishes"
        report["feasible_trefoil_ordering"] = list(
            cons.SEVEN_GON_FEASIBLE_TREFOIL_ORDERING.perm)
    return report


def _verify_8gon_41(eps: float) -> dict:
    d, a, cert, k = cons.figure_eight_8gon(eps)
    expected = {"crossings": 4, "class": "figure_eight", "feasible": True}
    got = {"crossings": d.n_crossings, "class": k.kind,
           "feasible": cert is not None}
    return {
        "target": "8gon-41",
        "ordering": list(d.ordering.perm),
        "assignment": a.bits,
        "certificate": cert.to_json(a),
        **got,
        "passed": expected == got,
        "diff": _failure_diff(expected, got),
    }


def _verify_pentagram(eps: float) -> dict:
    d, splits, a, cert, k, sticks = cons.pentagram_5_1(eps)
    plain = solve_feasibility(constraints_from_assignment(d, a))
    expected = {"class": "cinquefoil", "sticks": 8,
                "augmented_feasible": True, "plain_feasible": False}
    got = {"class": k.kind, "sticks": sticks,
           "augmented_feasible": cert is not None,
           "plain_feasible": plain is not None}
    return {
        "target": "pentagram-51",
        "split_vertices": sorted(splits),
        "assignment": a.bits,
        "certificate": cert.to_json(a),
        **got,
        "passed": expected == got,
        "diff": _failure_diff(expected, got),
    }


def _verify_census(eps: float, out_catalog: Optional[str]) -> dict:
    cat = cons.search_ngon(8, eps=eps, catalog_path=out_catalog)
    kinds = cat.kind_set()
    expected = {"has_figure_eight": True, "has_trefoil": True,
                "has_cinquefoil": False}
    got = {"has_figure_eight": "figure_eight" in kinds,
           "has_trefoil": "trefoil" in kinds,
           "has_cinquefoil": "cinquefoil" in kinds}
    report = {
        "target": "8gon-census",
        "orderings": len(cat.records),
        "kinds": sorted(kinds),
        **got,
        "passed": expected == got,
        "diff": _failure_diff(expected, got),
    }
    if got["has_cinquefoil"]:
        report["cinquefoil_records"] = [
            r.to_json() for r in cat.records
            if any(lbl.startswith("cinquefoil") for lbl in r.classes)]
    return report


def cmd_verify(args: argparse.Namespace) -> int:
    target = args.target
    if target.startswith("selection"):
        report = _verify_selection(*_selection_range(target), args.eps)
    elif target == "6gon":
        report = _verify_6gon(args.eps)
    elif target == "triple":
        report = _verify_triple(args.eps)
    elif target == "7gon-trefoil":
        report = _verify_7gon_trefoil(args.eps)
    elif target == "8gon-41":
        report = _verify_8gon_41(args.eps)
    elif target == "pentagram-51":
        report = _verify_pentagram(args.eps)
    elif target == "8gon-census":
        report = _verify_census(args.eps, args.catalog)
    else:
        raise InvalidParameterError(f"unknown verify target {target!r}")
    _emit(report, args.format, args.out)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# classify


def _load_diagram(args: argparse.Namespace) -> Diagram:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            return Diagram.from_json(json.load(fh))
    if args.n is None or args.ordering is None:
        raise InvalidParameterError(
            "classify needs --input, or --n with --ordering")
    perm = tuple(int(p) for p in args.ordering.split(","))
    return diagram_from_ordering(regular_ngon(args.n), Ordering(perm), args.eps)


def cmd_classify(args: argparse.Namespace) -> int:
    d = _load_diagram(args)
    if d.is_degenerate:
        report = {
            "command": "classify",
            "degenerate": True,
            "degeneracies": [g.to_json() for g in d.degeneracies],
            "passed": False,
        }
        _emit(report, args.format, args.out)
        return 1
    c = d.n_crossings
    if args.assignment == "alternating":
        a = alternating_assignment(d)
        if a is None:
            raise InvalidParameterError("diagram has no alternating assignment")
    else:
        a = CrossingAssignment.from_bits(c, int(args.assignment))
    k = classify(d, a)
    report = {
        "command": "classify",
        "degenerate": False,
        "crossings": c,
        "assignment": a.bits,
        "class": k.label,
        "writhe": diagram_writhe(d, a),
        "passed": True,
    }
    if c >= 3:
        pd = gauss_to_pd(extract_gauss_code(d, a))
        report["determinant"] = determinant(pd)
        report["jones"] = jones(pd, diagram_writhe(d, a)).to_json()
    if args.feasibility:
        cert = solve_feasibility(constraints_from_assignment(d, a))
        report["feasible"] = cert is not None
        if cert is not None:
            report["certificate"] = cert.to_json(a)
    _emit(report, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# render


def cmd_render(args: argparse.Namespace) -> int:
    d = _load_diagram(args)
    a = None
    if args.assignment is not None:
        if args.assignment == "alternating":
            a = alternating_assignment(d)
            if a is None:
                raise InvalidParameterError(
                    "diagram has no alternating assignment")
        else:
            a = CrossingAssignment.from_bits(d.n_crossings,
                                             int(args.assignment))
    labels = None
    if args.labels:
        labels = {}
        for item in args.labels.split(","):
            v, text = item.split(":", 1)
            labels[int(v)] = text
    svg = render_svg(d, a, labels)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    else:
        sys.stdout.write(svg)
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stickknots",
        description="Stick-knot diagrams from reordered planar vector sets.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--eps", type=float, default=EPS_DEFAULT,
                        help="geometric tolerance (default 1e-9)")
    common.add_argument("--out", type=str, default=None,
                        help="write the report/SVG here instead of stdout")
    common.add_argument("--format", choices=("json", "text", "svg"),
                        default="json")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run one verification gate")
    p_verify.add_argument(
        "target",
        help="one of: 6gon, selection[:LO-HI], triple, 7gon-trefoil, "
             "8gon-41, pentagram-51, 8gon-census")
    p_verify.add_argument("--catalog", type=str, default=None,
                          help="also write the census catalog (JSONL) here")
    p_verify.set_defaults(func=cmd_verify)

    p_classify = sub.add_parser("classify", parents=[common],
                                help="classify one diagram")
    p_classify.add_argument("--input", type=str, default=None,
                            help="diagram JSON file")
    p_classify.add_argument("--n", type=int, default=None,
                            help="regular n-gon size")
    p_classify.add_argument("--ordering", type=str, default=None,
                            help="comma-separated permutation, e.g. 0,2,4,1,6,3,5")
    p_classify.add_argument("--assignment", type=str, default="alternating",
                            help='bits as an integer, or "alternating"')
    p_classify.add_argument("--feasibility", action="store_true",
                            help="also solve and report height feasibility")
    p_classify.set_defaults(func=cmd_classify)

    p_render = sub.add_parser("render", parents=[common],
                              help="render one diagram as SVG")
    p_render.add_argument("--input", type=str, default=None,
                          help="diagram JSON file")
    p_render.add_argument("--n", type=int, default=None)
    p_render.add_argument("--ordering", type=str, default=None)
    p_render.add_argument("--assignment", type=str, default=None,
                          help='bits as an integer, or "alternating"')
    p_render.add_argument("--labels", type=str, default=None,
                          help='vertex annotations, e.g. "0:L,1:P,2:H"')
    p_render.set_defaults(func=cmd_render)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.eps <= 0.0:
        sys.stderr.write("error: --eps must be positive\n")
        return 2
    try:
        return args.func(args)
    except (InvalidParameterError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
