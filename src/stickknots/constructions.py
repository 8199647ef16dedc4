"""Constructive orderings and exhaustive verifications.

This module assembles the library's headline results: the polar-sort unknot
guarantee, the every-Xth-vector trefoil selection and its n-sweep, the
exhaustive 6-gon triviality check, the 8-gon figure-eight reordering, the
pentagram cinquefoil with vertical sticks, and the n-gon ordering census
with dihedral symmetry reduction.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .geometry import (
    EPS_DEFAULT,
    Diagram,
    InvalidParameterError,
    Ordering,
    Transversal,
    Vec2,
    VectorSet,
    diagram_from_ordering,
    merge_crossingless_runs,
    polar_sort,
    regular_ngon,
    segment_intersection,
)
from .codes import (
    BracketTable,
    CrossingAssignment,
    KnotClass,
    alternating_assignment,
    classify,
)
from .heights import (
    HeightCertificate,
    HeightSystem,
    constraints_from_assignment,
    feasible_cells,
    solve_feasibility,
    vertical_stick_augmentation,
)

__all__ = [
    "SEVEN_GON_TREFOIL_ORDERING",
    "SEVEN_GON_FEASIBLE_TREFOIL_ORDERING",
    "PENTAGRAM_ORDERING",
    "SelectionParams",
    "SelectionCheck",
    "SelectionReport",
    "SixGonReport",
    "CatalogRecord",
    "SearchCatalog",
    "selection_params",
    "unknot_ordering",
    "trefoil_selection",
    "verify_selection",
    "trefoil_reference_system",
    "exhaustive_6gon_check",
    "figure_eight_8gon",
    "pentagram_5_1",
    "three_vector_crossing",
    "canonical_ordering_classes",
    "search_ngon",
]

#: Reordering of the regular 7-gon whose diagram has one interior crossing
#: and two crossings exactly at walk vertices; the worked example for the
#: reference height system below.
SEVEN_GON_TREFOIL_ORDERING = Ordering((0, 1, 3, 5, 6, 2, 4))

#: A 7-gon reordering whose trefoil assignments are strictly height-feasible
#: with straight sticks (unlike the worked example and the selection
#: ordering, whose alternating systems are exactly boundary-degenerate).
SEVEN_GON_FEASIBLE_TREFOIL_ORDERING = Ordering((0, 2, 4, 1, 6, 3, 5))

#: Every 3rd vector of the regular 5-gon: the pentagram star.
PENTAGRAM_ORDERING = Ordering((0, 3, 1, 4, 2))


# ---------------------------------------------------------------------------
# Unknot guarantee


def unknot_ordering(vs: VectorSet,
                    eps: float = EPS_DEFAULT) -> tuple[Ordering, Diagram]:
    """Polar-sort the vectors; the resulting convex walk is an unknot."""
    ordering = polar_sort(vs)
    d = diagram_from_ordering(vs, ordering, eps)
    return ordering, d


# ---------------------------------------------------------------------------
# Trefoil selection


@dataclass(frozen=True)
class SelectionParams:
    """Step parameters for the every-Xth-vector selection."""

    n: int
    X: int
    phi: float  # turn angle between consecutive selected vectors, radians


def selection_params(n: int) -> SelectionParams:
    if n < 7:
        raise InvalidParameterError(
            "selection requires n >= 7 (6 vectors provably cannot knot)")
    X = n // 3 + 1
    return SelectionParams(n=n, X=X, phi=2.0 * math.pi * X / n)


def trefoil_selection(n: int) -> Ordering:
    """Pick vectors 0, X, 2X, 3X (mod n), X = floor(n/3) + 1, then append the
    rest by ascending index, which is ascending polar angle.

    The first four vectors turn by slightly more than 120 degrees each,
    tracing a 3-crossing pretzel; the appended convex tail closes the walk
    without adding crossings.
    """
    p = selection_params(n)
    first = [(k * p.X) % n for k in range(4)]
    if len(set(first)) != 4:
        raise InvalidParameterError(f"selected indices collide for n={n}")
    rest = [i for i in range(n) if i not in first]
    return Ordering(tuple(first + rest))


@dataclass(frozen=True)
class SelectionCheck:
    """Verification results for one n of the selection sweep.

    ``feasible_trefoil`` records whether any strictly feasible assignment
    classifies as a trefoil; for the exact regular n-gon the alternating
    system is degenerate (a positive combination of its rows vanishes), so
    this is False for every n even though the projection is a trefoil.
    """

    n: int
    X: int
    phi: float
    subwalk_pairs: tuple[tuple[int, int], ...]
    crossings: int
    sin_phi: float
    third_tip: tuple[float, float]
    fourth_above_line: bool
    projection_class: str
    feasible_trefoil: bool
    checks: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


@dataclass(frozen=True)
class SelectionReport:
    results: tuple[SelectionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


#: Bounds quoted for the selection proof, checked with this tolerance.
_SIN_PHI_LO = 0.149042
_SIN_PHI_HI = 0.8660254
_THIRD_TIP_Y_LO = -0.369009
_BOUND_TOL = 1e-9


def _subwalk_crossing_pairs(vs: VectorSet, ordering: Ordering,
                            eps: float) -> tuple[tuple[int, int], ...]:
    """Intersecting non-adjacent edge pairs among the first four edges of the
    open tip-to-tail walk."""
    pts = [Vec2(0.0, 0.0)]
    for idx in ordering.perm[:4]:
        pts.append(pts[-1] + vs[idx])
    pairs = []
    for i, j in ((0, 2), (0, 3), (1, 3)):
        res = segment_intersection(pts[i], pts[i + 1], pts[j], pts[j + 1], eps)
        if res is not None:
            pairs.append((i, j))
    return tuple(pairs)


def verify_selection(n_range: Iterable[int],
                     eps: float = EPS_DEFAULT) -> SelectionReport:
    """Run the selection checks for each n.

    Checks per n: (a) the 4-vector sub-walk crosses itself in exactly the
    pairs (1st,3rd), (1st,4th), (2nd,4th) and the full diagram has exactly 3
    crossings; (b) sin(phi) lies strictly inside the proof's bounds; (c) the
    third tip has negative y and positive x; (d) the fourth tip lies above
    the line through (1,0) with slope tan(phi); (e) the full diagram under
    the alternating assignment classifies as a trefoil projection.  Strict
    stick realizability of that projection is recorded separately as
    ``feasible_trefoil`` (it fails: the system is exactly degenerate).
    """
    results = []
    for n in n_range:
        p = selection_params(n)
        vs = regular_ngon(n)
        ordering = trefoil_selection(n)
        d = diagram_from_ordering(vs, ordering, eps)
        pairs = _subwalk_crossing_pairs(vs, ordering, eps)
        sin_phi = math.sin(p.phi)
        third = (1.0 + math.cos(p.phi) + math.cos(2.0 * p.phi),
                 math.sin(p.phi) + math.sin(2.0 * p.phi))
        fourth = (third[0] + math.cos(3.0 * p.phi),
                  third[1] + math.sin(3.0 * p.phi))
        line_y = fourth[0] * math.tan(p.phi) - math.tan(p.phi)
        alt = None if d.is_degenerate else alternating_assignment(d)
        proj_class = "degenerate"
        feasible_trefoil = False
        if alt is not None:
            table = BracketTable(d)
            proj_class = table.classify(alt).label
            # a total flip mirrors the knot, and trefoils of either hand
            # count: the walked half decides
            feasible_trefoil = any(table.classify(CrossingAssignment.from_bits(
                d.n_crossings, b)).kind == "trefoil" for b in feasible_cells(d)[0])
        checks = {
            "subwalk_crossings": pairs == ((0, 2), (0, 3), (1, 3))
                                 and d.n_crossings == 3,
            "sin_phi_bounds": (_SIN_PHI_LO + _BOUND_TOL < sin_phi
                               < _SIN_PHI_HI - _BOUND_TOL),
            "third_tip_quadrant": (_THIRD_TIP_Y_LO + _BOUND_TOL < third[1]
                                   < -_BOUND_TOL and third[0] > _BOUND_TOL),
            "fourth_above_line": fourth[1] > line_y + _BOUND_TOL,
            "projection_trefoil": proj_class in ("trefoil_left",
                                                 "trefoil_right"),
        }
        results.append(SelectionCheck(
            n=n, X=p.X, phi=p.phi, subwalk_pairs=pairs,
            crossings=d.n_crossings, sin_phi=sin_phi, third_tip=third,
            fourth_above_line=checks["fourth_above_line"],
            projection_class=proj_class, feasible_trefoil=feasible_trefoil,
            checks=checks))
    return SelectionReport(results=tuple(results))


def trefoil_reference_system() -> tuple[HeightSystem, tuple[float, ...],
                                        tuple[float, ...]]:
    """The reference inequality system of the worked 7-gon trefoil, with its
    known solution and that solution's slacks.

    Columns are (z_C, z_G, z_A, z_D, z_M): the heights named in the worked
    example, where z_M stands for the under-strand height at the interior
    crossing taken as a free value and the height at vertex B is pinned to
    zero.  The coefficients derive from the example's rounded figure
    coordinates; they agree with the exact diagram parameters of
    ``SEVEN_GON_TREFOIL_ORDERING`` to about 4 decimal places.
    """
    t1 = 0.5549889
    t2 = 0.445043715
    t3 = 0.3080017676
    system = HeightSystem(np.array([
        [1.0 - t1, t1, 0.0, 0.0, 0.0],
        [0.0, -(1.0 - t2), -t2, 1.0, 0.0],
        [0.0, 0.0, t3, 0.0, -1.0],
    ]))
    solution = (1.0, -0.7, 7.0, 3.0, 0.1)
    slacks = (0.05651887, 0.273163394, 2.056012375)
    return system, solution, slacks


# ---------------------------------------------------------------------------
# Exhaustive 6-gon check


@dataclass(frozen=True)
class SixGonReport:
    orderings: int
    unresolved: tuple[tuple[int, ...], ...]
    class_counts: dict[str, int]

    @property
    def all_unknot(self) -> bool:
        return (not self.unresolved
                and set(self.class_counts) <= {"unknot"})


def exhaustive_6gon_check(eps: float = EPS_DEFAULT) -> SixGonReport:
    """Classify every feasible assignment of every 6-gon reordering.

    A view of the census without symmetry reduction: all 120 orderings with
    the first vector fixed, retraced edges collapsed and coincident-vertex
    contacts resolved by interleaving.  Degenerate records are the unresolved
    orderings, and the labels of every record are counted.  The expected
    outcome is Unknot everywhere with nothing unresolved.
    """
    records = search_ngon(6, symmetry_reduce=False, eps=eps).records
    return SixGonReport(
        orderings=len(records),
        unresolved=tuple(r.ordering for r in records if r.degenerate),
        class_counts=Counter(label for r in records for label in r.classes))


# ---------------------------------------------------------------------------
# 8-gon figure-eight


def figure_eight_8gon(eps: float = EPS_DEFAULT) -> tuple[
        Diagram, CrossingAssignment, HeightCertificate, KnotClass]:
    """Find an 8-gon reordering forming a feasible figure-eight knot.

    The first symmetry class representative with exactly 4 crossings whose
    alternating assignment classifies as the figure-eight and is strictly
    feasible.  The test holds for all of a class or none of it (the
    figure-eight is amphichiral, and flipping every crossing negates the
    heights), so this is the lexicographically first such ordering with the
    first vector fixed.
    """
    vs = regular_ngon(8)
    for ordering, _orbit in canonical_ordering_classes(8):
        d = diagram_from_ordering(vs, ordering, eps)
        if d.is_degenerate or d.n_crossings != 4:
            continue
        a = alternating_assignment(d)
        if a is None:
            continue
        k = classify(d, a)
        if k.kind != "figure_eight":
            continue
        cert = solve_feasibility(constraints_from_assignment(d, a))
        if cert is None:
            continue
        return d, a, cert, k
    raise RuntimeError("no feasible 8-gon figure-eight reordering found")


# ---------------------------------------------------------------------------
# Pentagram cinquefoil


def pentagram_5_1(eps: float = EPS_DEFAULT) -> tuple[
        Diagram, frozenset[int], CrossingAssignment, HeightCertificate,
        KnotClass, int]:
    """The 5-gon star with 3 vertical sticks realizing a cinquefoil.

    Every 3rd vector of the regular 5-gon traces the pentagram, an
    alternating 5-crossing projection.  With straight sticks alone its
    alternating height system is infeasible; splitting the heights at 3
    vertices with vertical sticks (8 sticks total, matching the knot's
    stick number) makes it feasible.  Returns (diagram, split vertices,
    assignment, certificate, class, stick count).
    """
    vs = regular_ngon(5)
    d = diagram_from_ordering(vs, PENTAGRAM_ORDERING, eps)
    a = alternating_assignment(d)
    if a is None:
        raise RuntimeError("pentagram projection is not alternating")
    k = classify(d, a)
    for combo in itertools.combinations(range(5), 3):
        splits = frozenset(combo)
        cert = solve_feasibility(constraints_from_assignment(d, a, splits))
        if cert is not None:
            sticks = vertical_stick_augmentation(d, splits)
            return d, splits, a, cert, k, sticks
    raise RuntimeError("no 3-vertex augmentation makes the pentagram feasible")


# ---------------------------------------------------------------------------
# Three equal vectors


@dataclass(frozen=True)
class ThreeVectorResult:
    tag: str  # "crossing" | "closed_loop"
    ordering: tuple[int, ...]


def three_vector_crossing(v1: Vec2, v2: Vec2, v3: Vec2,
                          eps: float = EPS_DEFAULT) -> ThreeVectorResult:
    """Order three equal-length vectors so their open walk self-intersects.

    When the three are spread beyond any closed half-plane, some tip-to-tail
    order of them either crosses itself or (only when the angles are evenly
    spaced) closes into an equilateral triangle.
    """
    vecs = (v1, v2, v3)
    lengths = [v.norm() for v in vecs]
    if max(lengths) - min(lengths) > eps:
        raise InvalidParameterError("vectors must have equal length")
    total = vecs[0] + vecs[1] + vecs[2]
    if total.norm() <= 10.0 * eps:
        return ThreeVectorResult(tag="closed_loop", ordering=(0, 1, 2))
    # Half-plane test: all three within some closed half-plane iff some
    # pair's angular span of pi covers the rest.
    angles = sorted(v.angle() for v in vecs)
    gaps = [(angles[(i + 1) % 3] - angles[i]) % (2.0 * math.pi)
            for i in range(3)]
    if max(gaps) >= math.pi - 1e-12:
        raise InvalidParameterError(
            "vectors lie in a closed half-plane; no crossing is forced")
    for perm in itertools.permutations(range(3)):
        pts = [Vec2(0.0, 0.0)]
        for i in perm:
            pts.append(pts[-1] + vecs[i])
        res = segment_intersection(pts[0], pts[1], pts[2], pts[3], eps)
        if isinstance(res, Transversal):
            return ThreeVectorResult(tag="crossing", ordering=perm)
    raise RuntimeError("no self-intersecting order found (unexpected)")


# ---------------------------------------------------------------------------
# Ordering census


@dataclass(frozen=True)
class CatalogRecord:
    n: int
    ordering: tuple[int, ...]
    crossings: int
    feasible: int
    classes: tuple[str, ...]
    degenerate: bool
    merged_sticks: int
    orbit: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "ordering": list(self.ordering),
            "crossings": self.crossings,
            "feasible": self.feasible,
            "classes": list(self.classes),
            "degenerate": self.degenerate,
            "merged_sticks": self.merged_sticks,
            "orbit": self.orbit,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CatalogRecord":
        return cls(
            n=int(obj["n"]), ordering=tuple(int(i) for i in obj["ordering"]),
            crossings=int(obj["crossings"]), feasible=int(obj["feasible"]),
            classes=tuple(str(s) for s in obj["classes"]),
            degenerate=bool(obj["degenerate"]),
            merged_sticks=int(obj["merged_sticks"]), orbit=int(obj["orbit"]),
        )


@dataclass(frozen=True)
class SearchCatalog:
    n: int
    symmetry_reduce: bool
    eps: float
    records: tuple[CatalogRecord, ...]

    def class_set(self) -> set[str]:
        return {label for r in self.records for label in r.classes}

    def kind_set(self) -> set[str]:
        return {label.split("_left")[0].split("_right")[0]
                for label in self.class_set()}

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "n": self.n, "symmetry_reduce": self.symmetry_reduce,
                "eps": self.eps, "records": len(self.records),
            }, sort_keys=True) + "\n")
            for r in self.records:
                fh.write(json.dumps(r.to_json(), sort_keys=True) + "\n")

    @classmethod
    def read_jsonl(cls, path: str) -> "SearchCatalog":
        with open(path, "r", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            records = tuple(CatalogRecord.from_json(json.loads(line))
                            for line in fh if line.strip())
        return cls(n=int(header["n"]),
                   symmetry_reduce=bool(header["symmetry_reduce"]),
                   eps=float(header["eps"]), records=records)


def _orbit_size(perm: tuple[int, ...], use_symmetry: bool) -> int:
    """Size of the symmetry class of ``perm``, or 0 if an image is smaller.

    The image relabelling word[j] -> 0 by i -> s * (i - word[j]) starts
    (0, s * d) for the step d from word[j] of the word or reversed word.
    No step of ``perm`` is shorter than perm[1], so only the images that
    start (0, perm[1]) can be smaller or equal; they are compared label by
    label, and by orbit-stabilizer the orbit is 4n over the number equal.
    """
    if not use_symmetry:
        return 1
    n, first, equal = len(perm), perm[1], 0
    for word in (perm * 2, perm[::-1] * 2):
        for j, x in enumerate(word[:n]):
            for s in (1, -1):
                if s * (word[j + 1] - x) % n != first:
                    continue
                for y, label in zip(word[j + 2:j + n], perm[2:]):
                    y = s * (y - x) % n
                    if y != label:
                        if y < label:
                            return 0
                        break
                else:
                    equal += 1
    return 4 * n // equal


def canonical_ordering_classes(n: int, use_symmetry: bool = True
                               ) -> list[tuple[Ordering, int]]:
    """Group all first-fixed orderings into symmetry classes.

    With ``use_symmetry`` the images of an ordering are its word and reversed
    word under the relabellings i -> +-i + k of the regular n-gon's vectors,
    rotated to start at vector 0; without it every ordering is its own class.
    Orderings are walked in lexicographic order and kept when no image is
    smaller, so the (representative, orbit size) pairs come out sorted by
    their smallest member, and no set of all orderings is held.  Relabelling
    perm[j] -> 0 gives images starting (0, d) and (0, n - d) for each step
    d = perm[j + 1] - perm[j] (mod n) of the closed walk, so no kept ordering
    has a step shorter than perm[1], and the walk cuts every prefix with one.
    """
    if n < 3:
        raise InvalidParameterError(f"orderings need n >= 3, got {n}")
    classes = []

    def extend(prefix: tuple[int, ...], rest: tuple[int, ...], floor: int):
        if floor > 1 and rest:  # a floor of 1 cuts nothing
            for k, x in enumerate(rest):
                if floor <= (x - prefix[-1]) % n <= n - floor:
                    extend(prefix + (x,), rest[:k] + rest[k + 1:], floor)
            return
        for perm in (prefix + tail for tail in itertools.permutations(rest)):
            if floor <= perm[-1] <= n - floor:  # the step back to 0
                orbit = _orbit_size(perm, use_symmetry)
                if orbit:
                    classes.append((Ordering(perm), orbit))

    for a in range(1, n // 2 + 1 if use_symmetry else n):
        extend((0, a), tuple(range(1, a)) + tuple(range(a + 1, n)),
               a if use_symmetry else 1)
    return classes


def search_ngon(n: int, symmetry_reduce: bool = True,
                eps: float = EPS_DEFAULT) -> SearchCatalog:
    """Census of all reorderings of the regular n-gon.

    For each ordering (up to symmetry when enabled) the census records the
    crossing count, the number of strictly feasible assignments, and the
    multiset of knot classes those assignments form.  Diagrams with
    unresolved degeneracies are recorded with the degenerate flag and
    skipped for classification.

    n is capped at 10: the 11-gon census (83,435 classes) is worth its
    cost only once the degenerate classes, recorded but not classified
    (11.7% of the 10-gon orderings), are classified too.
    """
    if n > 10:
        raise InvalidParameterError("census capped at n = 10")
    vs = regular_ngon(n)
    records = []
    for ordering, orbit in canonical_ordering_classes(n, symmetry_reduce):
        d = diagram_from_ordering(vs, ordering, eps)
        if d.is_degenerate:
            records.append(CatalogRecord(
                n=n, ordering=ordering.perm, crossings=d.n_crossings,
                feasible=0, classes=(), degenerate=True,
                merged_sticks=d.walk.n_edges, orbit=orbit))
            continue
        table = BracketTable(d)
        kinds = [table.classify(CrossingAssignment.from_bits(d.n_crossings, b))
                 for b in sorted(feasible_cells(d)[0], key=table.plan_order)]
        if d.n_crossings:  # each walked cell's total flip: its mirror image
            kinds += [k.mirror() for k in kinds]
        labels = sorted(k.label for k in kinds)
        records.append(CatalogRecord(
            n=n, ordering=ordering.perm, crossings=d.n_crossings,
            feasible=len(labels), classes=tuple(labels), degenerate=False,
            merged_sticks=merge_crossingless_runs(d, eps), orbit=orbit))
    return SearchCatalog(n=n, symmetry_reduce=symmetry_reduce, eps=eps,
                         records=tuple(records))
