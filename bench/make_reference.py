"""Record the benchmark's reference outputs from the current library.

Run from the repository root:

    python3 bench/make_reference.py

It rewrites the files in ``bench/reference/``.  The stored references were
recorded from the commit that introduced the benchmark; regenerate them only
for a change that intends different outputs, and say so in CHANGES.md.  The
script cross-checks the overlap with ``tests/test_acceptance.py`` and
cross-checks the 9-gon kinds between the two bracket implementations.
"""

from __future__ import annotations

import gzip
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from stickknots import cli, codes, constructions, geometry  # noqa: E402
from workloads import (REFERENCE_DIR, SINGLE_MAX_CROSSINGS,  # noqa: E402
                       TABLE_MAX_CROSSINGS, TABLE_MIN_CROSSINGS,
                       command_record)

#: The one-shot commands of the gates workload.
GATE_COMMANDS = (
    ["verify", "6gon"],
    ["verify", "triple"],
    ["verify", "7gon-trefoil"],
    ["verify", "8gon-41"],
    ["verify", "pentagram-51"],
    ["classify", "--n", "8", "--ordering", "0,2,4,7,1,6,3,5",
     "--feasibility"],
    ["render", "--n", "5", "--ordering", "0,3,1,4,2",
     "--assignment", "alternating"],
)

#: Exit codes by design: the exact 7-gon selection's alternating system is
#: boundary-degenerate, so that gate reports failure.
GATE_EXITS = (0, 0, 1, 0, 0, 0, 0)


def census7() -> dict:
    cat = constructions.search_ngon(7)
    kinds = sorted(cat.kind_set())
    assert kinds == ["figure_eight", "trefoil", "unknot"], kinds
    return {
        "n": 7,
        "kinds": kinds,
        "records": [{"ordering": list(r.ordering), "crossings": r.crossings,
                     "feasible": r.feasible, "classes": list(r.classes),
                     "degenerate": r.degenerate} for r in cat.records],
    }


def sweep() -> dict:
    rep = constructions.verify_selection(range(7, 101))
    assert len(rep.results) == 94 and rep.passed
    for r in rep.results:
        assert r.crossings == 3 and not r.feasible_trefoil
        assert r.projection_class.startswith("trefoil")
    return {"results": {str(r.n): {
        "passed": r.passed, "crossings": r.crossings,
        "projection_class": r.projection_class,
        "feasible_trefoil": r.feasible_trefoil} for r in rep.results}}


def scan9() -> dict:
    kind_names: list[str] = []
    vs = geometry.regular_ngon(9)
    classes = []
    for ordering, orbit in constructions.canonical_ordering_classes(9):
        d = geometry.diagram_from_ordering(vs, ordering)
        c = d.n_crossings
        entry = {"ordering": list(ordering.perm), "orbit": orbit,
                 "crossings": c, "degenerate": d.is_degenerate}
        if not d.is_degenerate and TABLE_MIN_CROSSINGS <= c <= TABLE_MAX_CROSSINGS:
            table = codes.BracketTable(d)
            digits = []
            for bits in range(1 << c):
                a = codes.CrossingAssignment.from_bits(c, bits)
                kind = table.classify(a).kind
                if c <= SINGLE_MAX_CROSSINGS:
                    assert codes.classify(d, a).kind == kind, (ordering, bits)
                if kind not in kind_names:
                    kind_names.append(kind)
                digits.append(str(kind_names.index(kind)))
            entry["kinds"] = "".join(digits)
        classes.append(entry)
    assert len(classes) == 1219
    assert sum(e["degenerate"] for e in classes) == 18
    assert len(kind_names) <= 10
    return {"n": 9, "kind_names": kind_names, "classes": classes}


def gates() -> dict:
    commands = []
    for argv, want_exit in zip(GATE_COMMANDS, GATE_EXITS):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(list(argv))
        assert code == want_exit, (argv, code)
        commands.append(command_record(argv, code, stdout.getvalue(),
                                       stderr.getvalue()))
    return {"commands": commands}


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, build in (("census7", census7), ("sweep", sweep),
                        ("gates", gates)):
        text = json.dumps(build(), indent=1, sort_keys=True) + "\n"
        (REFERENCE_DIR / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"wrote {name}.json")
    # Byte-stable gzip (mtime 0), so regenerating unchanged data is a no-op.
    data = json.dumps(scan9(), sort_keys=True).encode("utf-8")
    with open(REFERENCE_DIR / "scan9.json.gz", "wb") as raw:
        with gzip.GzipFile(filename="", fileobj=raw, mode="wb",
                           mtime=0) as fh:
            fh.write(data)
    print("wrote scan9.json.gz")
    return 0


if __name__ == "__main__":
    sys.exit(main())
