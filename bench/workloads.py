"""The benchmark's four workloads.

Each workload turns a seed and its stored reference into inputs (when
constructed), runs one pass through the public API of ``stickknots``
(``run``), and compares that pass's outputs with the reference (``check``).
Library functions are looked up on their modules at call time, so a traced
pass sees the tracer's wrappers.  One operation is one diagram, one n or one
command; a pass that raises fails all of its operations.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Check:
    """Outcome of comparing one pass with the reference."""

    attempted: int
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)


def load_reference(name: str) -> dict:
    path = REFERENCE_DIR / f"{name}.json.gz"
    if not path.exists():
        path = REFERENCE_DIR / f"{name}.json"
        return json.loads(path.read_text(encoding="utf-8"))
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


class Census7:
    """``search_ngon(7)``: the census path, dominated by height LPs."""

    name = "census7"
    unit = "assignments decided"

    def __init__(self, seed: int) -> None:
        # The census has no free input; the seed is only recorded.
        self.seed = seed
        self.ref = load_reference(self.name)

    def work_per_pass(self) -> int:
        return sum(1 << r["crossings"] for r in self.ref["records"]
                   if not r["degenerate"])

    def ops_per_pass(self) -> int:
        return len(self.ref["records"])

    def run(self):
        from stickknots import constructions
        return constructions.search_ngon(7)

    def check(self, catalog) -> Check:
        ref = {tuple(r["ordering"]): r for r in self.ref["records"]}
        chk = Check(attempted=len(ref))
        seen = set()
        for rec in catalog.records:
            key = tuple(rec.ordering)
            seen.add(key)
            want = ref.get(key)
            got = {"ordering": list(key), "crossings": rec.crossings,
                   "feasible": rec.feasible, "classes": list(rec.classes),
                   "degenerate": rec.degenerate}
            if want is None:
                chk.attempted += 1
                chk.fail(f"unexpected record {list(key)}")
            elif got != want:
                chk.fail(f"record {list(key)}: got {got}, want {want}")
        for key in ref.keys() - seen:
            chk.fail(f"missing record {list(key)}")
        kinds = sorted(catalog.kind_set())
        if kinds != self.ref["kinds"] and chk.failed == 0:
            chk.fail(f"kind set {kinds}, want {self.ref['kinds']}")
        return chk


class Sweep:
    """``verify_selection`` over n = 7..100: few, large walks."""

    name = "sweep"
    unit = "diagrams"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ref = load_reference(self.name)
        # The seed permutes the order in which the n are checked.
        self.ns = sorted(int(n) for n in self.ref["results"])
        random.Random(seed).shuffle(self.ns)

    def work_per_pass(self) -> int:
        return len(self.ns)

    def ops_per_pass(self) -> int:
        return len(self.ns)

    def run(self):
        from stickknots import constructions
        return constructions.verify_selection(self.ns)

    def check(self, report) -> Check:
        ref = self.ref["results"]
        chk = Check(attempted=len(ref))
        got_ns = set()
        for r in report.results:
            got_ns.add(str(r.n))
            want = ref.get(str(r.n))
            got = {"passed": r.passed, "crossings": r.crossings,
                   "projection_class": r.projection_class,
                   "feasible_trefoil": r.feasible_trefoil}
            if want is None:
                chk.attempted += 1
                chk.fail(f"unexpected n = {r.n}")
            elif got != want:
                chk.fail(f"n = {r.n}: got {got}, want {want}")
        for n in ref.keys() - got_ns:
            chk.fail(f"missing n = {n}")
        return chk


#: scan9 sample sizes: assignments per clean class classified through a
#: ``BracketTable``, and, for classes of at most ``SINGLE_MAX_CROSSINGS``
#: crossings, through the single-assignment ``classify``.
TABLE_SAMPLE = 48
SINGLE_SAMPLE = 3
TABLE_MIN_CROSSINGS = 3
TABLE_MAX_CROSSINGS = 16
SINGLE_MAX_CROSSINGS = 8


class Scan9:
    """Front half of the 9-gon census: enumeration, geometry and brackets.

    No LP runs here.  The reference holds the knot kind of every assignment
    of every clean class with 3..16 crossings, so the seeded samples can be
    checked for any seed.
    """

    name = "scan9"
    unit = "ordering classes"

    def __init__(self, seed: int) -> None:
        from stickknots.codes import CrossingAssignment

        self.seed = seed
        self.ref = load_reference(self.name)
        rng = random.Random(seed)
        # class index -> (crossings, table sample, single sample)
        self.samples: dict[int, tuple[int, list, list]] = {}
        for i, cls in enumerate(self.ref["classes"]):
            c = cls["crossings"]
            if cls["degenerate"] or not (
                    TABLE_MIN_CROSSINGS <= c <= TABLE_MAX_CROSSINGS):
                continue
            table = sorted(rng.sample(range(1 << c), min(1 << c, TABLE_SAMPLE)))
            single = []
            if c <= SINGLE_MAX_CROSSINGS:
                single = sorted(rng.sample(range(1 << c),
                                           min(1 << c, SINGLE_SAMPLE)))
            self.samples[i] = (
                c, [CrossingAssignment.from_bits(c, b) for b in table],
                [CrossingAssignment.from_bits(c, b) for b in single])

    def work_per_pass(self) -> int:
        return len(self.ref["classes"])

    def ops_per_pass(self) -> int:
        return len(self.ref["classes"])

    def run(self):
        from stickknots import codes, constructions, geometry
        vs = geometry.regular_ngon(9)
        rows = []
        for i, (ordering, orbit) in enumerate(
                constructions.canonical_ordering_classes(9)):
            d = geometry.diagram_from_ordering(vs, ordering)
            row = [list(ordering.perm), orbit, d.n_crossings,
                   d.is_degenerate, None, None]
            sample = self.samples.get(i)
            if (sample is not None and not d.is_degenerate
                    and d.n_crossings == sample[0]):
                table = codes.BracketTable(d)
                row[4] = [table.classify(a).kind for a in sample[1]]
                row[5] = [codes.classify(d, a).kind for a in sample[2]]
            rows.append(row)
        return rows

    def expected_kinds(self, i: int, assignments: list) -> list[str]:
        code = self.ref["classes"][i]["kinds"]
        return [self.ref["kind_names"][int(code[a.bits])] for a in assignments]

    def tally(self) -> dict[str, int]:
        """Knot-kind tally of this seed's table sample, from the reference."""
        out: dict[str, int] = {}
        for i, (_c, table, _single) in self.samples.items():
            for kind in self.expected_kinds(i, table):
                out[kind] = out.get(kind, 0) + 1
        return dict(sorted(out.items()))

    def check(self, rows) -> Check:
        ref = self.ref["classes"]
        chk = Check(attempted=max(len(ref), len(rows)))
        if len(rows) != len(ref):
            chk.fail(f"{len(rows)} classes, want {len(ref)}",
                     abs(len(rows) - len(ref)))
        for i, (row, want) in enumerate(zip(rows, ref)):
            perm, orbit, crossings, degenerate, table_kinds, single_kinds = row
            got = {"ordering": perm, "orbit": orbit, "crossings": crossings,
                   "degenerate": degenerate}
            head = {k: want[k] for k in got}
            if got != head:
                chk.fail(f"class {i}: got {got}, want {head}")
                continue
            sample = self.samples.get(i)
            if sample is None:
                continue
            if (table_kinds != self.expected_kinds(i, sample[1])
                    or single_kinds != self.expected_kinds(i, sample[2])):
                chk.fail(f"class {i} {perm}: sampled knot kinds differ")
        return chk


class Gates:
    """One-shot commands through ``cli.main``, in process."""

    name = "gates"
    unit = "command invocations"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ref = load_reference(self.name)
        self.order = list(range(len(self.ref["commands"])))
        random.Random(seed).shuffle(self.order)

    def work_per_pass(self) -> int:
        return len(self.order)

    def ops_per_pass(self) -> int:
        return len(self.order)

    def run(self):
        from stickknots import cli
        out = {}
        for i in self.order:
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main(list(self.ref["commands"][i]["argv"]))
            out[i] = (code, stdout.getvalue(), stderr.getvalue())
        return out

    def check(self, out) -> Check:
        chk = Check(attempted=len(self.ref["commands"]))
        for i, want in enumerate(self.ref["commands"]):
            if i not in out:
                chk.fail(f"{want['argv']}: not run")
                continue
            got = command_record(want["argv"], *out[i])
            if got != want:
                chk.fail(f"{want['argv']}: exit {got['exit']} "
                         f"(want {want['exit']}), report digest "
                         f"{got['stdout_sha256'][:12]} "
                         f"(want {want['stdout_sha256'][:12]})")
        return chk


def command_record(argv: list[str], code: int, stdout: str,
                   stderr: str) -> dict:
    """What the reference stores of one command: exit code and digests."""
    return {
        "argv": list(argv),
        "exit": code,
        "stdout_bytes": len(stdout.encode("utf-8")),
        "stdout_sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
        "stderr_sha256": hashlib.sha256(stderr.encode("utf-8")).hexdigest(),
    }


WORKLOADS = {w.name: w for w in (Census7, Sweep, Scan9, Gates)}
