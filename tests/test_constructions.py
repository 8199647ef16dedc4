"""Named constructions, selection sweep, exhaustive censuses."""

import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from stickknots import codes, constructions, heights
from stickknots.geometry import (
    EPS_DEFAULT,
    InvalidParameterError,
    Ordering,
    Vec2,
    VectorSet,
    diagram_from_ordering,
    regular_ngon,
)
from stickknots.codes import (
    BracketTable,
    CrossingAssignment,
    alternating_assignment,
    classify,
    extract_gauss_code,
    merge_crossingless_runs,
)
from stickknots.heights import (
    constraints_from_assignment,
    feasible_assignments,
    verify_certificate,
)
from stickknots.constructions import (
    PENTAGRAM_ORDERING,
    SEVEN_GON_FEASIBLE_TREFOIL_ORDERING,
    SEVEN_GON_TREFOIL_ORDERING,
    SearchCatalog,
    canonical_ordering_classes,
    exhaustive_6gon_check,
    figure_eight_8gon,
    pentagram_5_1,
    search_ngon,
    selection_params,
    three_vector_crossing,
    trefoil_selection,
    unknot_ordering,
    verify_selection,
)

from conftest import exact_slacks


# ---------------------------------------------------------------------------
# Named orderings


def test_worked_seven_gon_trefoil_projection():
    d = diagram_from_ordering(regular_ngon(7), SEVEN_GON_TREFOIL_ORDERING)
    assert d.n_crossings == 3
    a = alternating_assignment(d)
    assert classify(d, a).kind == "trefoil"


def test_unknot_ordering_is_convex():
    ordering, d = unknot_ordering(regular_ngon(9, phase=0.2))
    assert d.n_crossings == 0
    assert ordering.perm == tuple(range(9))


# ---------------------------------------------------------------------------
# Selection


def test_selection_params_and_first_indices():
    p = selection_params(7)
    assert p.X == 3
    assert p.phi == pytest.approx(6.0 * math.pi / 7.0)
    assert trefoil_selection(7).perm[:4] == (0, 3, 6, 2)
    with pytest.raises(InvalidParameterError):
        selection_params(6)


def test_selection_sweep_short_range():
    rep = verify_selection(range(7, 31))
    assert rep.passed
    for r in rep.results:
        assert r.crossings == 3
        assert r.subwalk_pairs == ((0, 2), (0, 3), (1, 3))
        assert 0.149042 < r.sin_phi < 0.8660254
        assert -0.369009 < r.third_tip[1] < 0.0 and r.third_tip[0] > 0.0
        assert r.projection_class.startswith("trefoil")
        # strict stick feasibility fails for every n: the alternating
        # system of the exact selection diagram is boundary-degenerate
        assert not r.feasible_trefoil


def test_selection_builds_one_bracket_table_per_diagram(monkeypatch):
    built = []

    class CountingTable(constructions.BracketTable):
        def __init__(self, d):
            built.append(d.ordering)
            super().__init__(d)

    monkeypatch.setattr(constructions, "BracketTable", CountingTable)
    rep = verify_selection(range(7, 13))
    assert rep.passed
    assert built == [trefoil_selection(n) for n in range(7, 13)]


def test_feasible_trefoil_ordering_exists_for_seven_vectors():
    # the degeneracy is a property of the selection ordering, not of the
    # 7-gon itself: this reordering carries feasible trefoil assignments
    d = diagram_from_ordering(regular_ngon(7),
                              SEVEN_GON_FEASIBLE_TREFOIL_ORDERING)
    a = alternating_assignment(d)
    assert classify(d, a).kind == "trefoil"
    from stickknots.heights import solve_feasibility
    assert solve_feasibility(constraints_from_assignment(d, a)) is not None


# ---------------------------------------------------------------------------
# Exhaustive constructions


def test_exhaustive_6gon_all_unknot():
    rep = exhaustive_6gon_check()
    assert rep.orderings == 120
    assert not rep.unresolved
    assert rep.all_unknot
    assert rep.class_counts == {"unknot": 132}


def test_figure_eight_8gon_construction():
    d, a, cert, k = figure_eight_8gon()
    assert d.ordering.perm == (0, 2, 4, 7, 1, 6, 3, 5)
    assert a.bits == 5
    assert d.n_crossings == 4
    assert k.kind == "figure_eight"
    system = constraints_from_assignment(d, a)
    assert verify_certificate(system, cert).ok


def test_pentagram_5_1_construction():
    d, splits, a, cert, k, sticks = pentagram_5_1()
    assert d.ordering == PENTAGRAM_ORDERING
    assert d.n_crossings == 5
    assert k.kind == "cinquefoil"
    assert len(splits) == 3
    assert sticks == 8  # matches the cinquefoil's stick number
    system = constraints_from_assignment(d, a, splits)
    assert verify_certificate(system, cert).ok


# ---------------------------------------------------------------------------
# Three equal vectors


def test_three_vector_crossing_cases():
    spread = three_vector_crossing(Vec2(1, 0),
                                   Vec2(math.cos(2.4), math.sin(2.4)),
                                   Vec2(math.cos(-2.2), math.sin(-2.2)))
    assert spread.tag == "crossing"
    closed = three_vector_crossing(Vec2(1, 0),
                                   Vec2(math.cos(2 * math.pi / 3),
                                        math.sin(2 * math.pi / 3)),
                                   Vec2(math.cos(4 * math.pi / 3),
                                        math.sin(4 * math.pi / 3)))
    assert closed.tag == "closed_loop"
    with pytest.raises(InvalidParameterError):
        three_vector_crossing(Vec2(1, 0), Vec2(0, 1), Vec2(-1, 0))
    with pytest.raises(InvalidParameterError):
        three_vector_crossing(Vec2(2, 0), Vec2(0, 1), Vec2(-1, -1))


# ---------------------------------------------------------------------------
# Census machinery


def test_canonical_classes_partition_all_orderings():
    classes = canonical_ordering_classes(6)
    assert sum(orbit for _, orbit in classes) == 120
    reps = {o.perm for o, _ in classes}
    assert len(reps) == len(classes)


def _classes_by_minimum_image(n, use_symmetry):
    """Reference grouping: every first-fixed ordering keyed by the smallest of
    its images (word or reversed word, relabelled i -> +-i + k, rotated to
    start at 0), classes sorted by key."""
    relabelings = ([(s, k) for s in (1, -1) for k in range(n)]
                   if use_symmetry else [(1, 0)])

    def images(perm):
        for word in ((perm, perm[::-1]) if use_symmetry else (perm,)):
            for s, k in relabelings:
                w = [(s * i + k) % n for i in word]
                z = w.index(0)
                yield tuple(w[z:] + w[:z])

    keys = Counter(min(images((0,) + rest))
                   for rest in itertools.permutations(range(1, n)))
    return [(Ordering(key), orbit) for key, orbit in sorted(keys.items())]


@pytest.mark.parametrize("n, use_symmetry",
                         [(n, s) for n in range(3, 9) for s in (False, True)]
                         + [(9, True)])
def test_canonical_classes_equal_minimum_image_grouping(n, use_symmetry):
    assert (canonical_ordering_classes(n, use_symmetry)
            == _classes_by_minimum_image(n, use_symmetry))


def test_nine_gon_classes_partition_all_orderings():
    classes = canonical_ordering_classes(9)
    assert len(classes) == 1219
    assert sum(orbit for _, orbit in classes) == 40320


def test_ten_gon_classes_partition_all_orderings():
    # a representative that the first-step cut dropped would leave the
    # orbit sum short of 9!
    classes = canonical_ordering_classes(10)
    assert len(classes) == 9468
    assert sum(orbit for _, orbit in classes) == math.factorial(9)


@pytest.mark.parametrize("perm", [
    tuple(range(7)),                # convex: a dihedral stabilizer of 14
    tuple(range(9)),
    (0, 3, 6, 2, 5, 1, 4),          # {7/3} heptagram
    (0, 4, 8, 3, 7, 2, 6, 1, 5),    # {9/4} star: a stabilizer of 18
])
def test_orbit_size_of_the_regular_stars_is_two(perm):
    n = len(perm)
    assert constructions._orbit_size(perm, True) == 2
    assert (Ordering(perm), 2) in canonical_ordering_classes(n)
    assert constructions._orbit_size(perm, False) == 1


def test_orbit_size_is_zero_off_the_smallest_image():
    # every step is 2 to 5, as the first-step cut leaves it, yet the
    # images relabelled by i -> 2 - i include a smaller one
    perm = (0, 2, 4, 6, 1, 5, 3)
    assert constructions._orbit_size(perm, True) == 0
    assert Ordering(perm) not in {o for o, _ in canonical_ordering_classes(7)}
    assert constructions._orbit_size(perm, False) == 1


@pytest.mark.parametrize("n", range(3, 11))
def test_representatives_start_with_their_shortest_step(n):
    for ordering, _ in canonical_ordering_classes(n):
        perm = ordering.perm
        steps = [(perm[(j + 1) % n] - perm[j]) % n for j in range(n)]
        assert perm[1] == min(min(d, n - d) for d in steps), perm


@pytest.mark.parametrize("use_symmetry", [True, False])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_canonical_classes_refuse_fewer_than_three_vectors(n, use_symmetry):
    with pytest.raises(InvalidParameterError, match="n >= 3"):
        canonical_ordering_classes(n, use_symmetry)


def test_census_forwards_eps_to_stick_merging(monkeypatch):
    assert merge_crossingless_runs.__defaults__ == (EPS_DEFAULT,)
    seen = []

    def spy(d, eps=None):
        seen.append(eps)
        return merge_crossingless_runs(d, eps)

    monkeypatch.setattr(constructions, "merge_crossingless_runs", spy)
    search_ngon(5, eps=1e-7)
    assert seen and set(seen) == {1e-7}


def test_symmetry_reduction_preserves_class_outcomes():
    full = search_ngon(6, symmetry_reduce=False)
    reduced = search_ngon(6, symmetry_reduce=True)
    assert full.class_set() == reduced.class_set() == {"unknot"}
    assert sum(r.orbit for r in reduced.records) == len(full.records) == 120


def test_census_catalog_round_trip(tmp_path):
    path = str(tmp_path / "catalog.jsonl")
    cat = search_ngon(6)
    cat.write_jsonl(path)
    back = SearchCatalog.read_jsonl(path)
    assert back == cat


#: The census of each n as recorded before assignments held their bits:
#: (classes, degenerate, crossingless), the orbit-weighted count of each
#: label, and the SHA-256 of ``write_jsonl``.  A change that means to
#: change a census updates its entry and logs the per-label diff.
CENSUS_PINS = {
    5: ((4, 0, 2), {"unknot": 52},
        "8801d8608a6f0e95c5cc1e8fdc4a8ad88d49eebd1233517020cb83b6593f8e67"),
    6: ((12, 0, 11), {"unknot": 132},
        "21132cd1bc289accddee2a61bd9be16d487dc6017cf9618f3e66630cd9b93930"),
    7: ((39, 3, 12), {
        "figure_eight": 56, "trefoil_left": 140, "trefoil_right": 140,
        "unknot": 2774},
        "bab06a406a67a41237ac95a962af6ac208c594b9f95bc153cd321ef15b533042"),
    8: ((202, 0, 136), {
        "cinquefoil_left": 16, "cinquefoil_right": 16, "figure_eight": 288,
        "other": 224, "three_twist_left": 64, "three_twist_right": 64,
        "trefoil_left": 600, "trefoil_right": 600, "unknot": 12958},
        "61e02203f8dcf77b705acb161867af64b41cb3638310ea24a5960d8da7faa32d"),
}


def test_census_matches_its_pins(heptagon_census, octagon_census, tmp_path):
    for catalog in (search_ngon(5), search_ngon(6), heptagon_census,
                    octagon_census):
        counts, labels, digest = CENSUS_PINS[catalog.n]
        records = catalog.records
        assert (len(records), sum(r.degenerate for r in records),
                sum(not r.degenerate and not r.crossings for r in records)
                ) == counts
        weighted = Counter()
        for r in records:
            for label in r.classes:
                weighted[label] += r.orbit
        assert weighted == labels
        path = tmp_path / f"census{catalog.n}.jsonl"
        catalog.write_jsonl(str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_census_labels_equal_labels_evaluated_from_the_first_step(
        octagon_census):
    # the census labels a class's cells in the plan's order, each resuming
    # the bracket of the cell before it; here a fresh projection per record
    # evaluates every cell from the first contraction step
    vs = regular_ngon(8)
    for r in octagon_census.records:
        if r.degenerate:
            continue
        d = diagram_from_ordering(vs, Ordering(r.ordering))
        c = d.n_crossings
        projection = codes._Projection(extract_gauss_code(
            d, CrossingAssignment.from_bits(c, 0)))
        kinds = [codes._packed_reference(c, projection.writhe(b)).get(
            codes._evaluate(projection.plan, b), codes.OTHER)
            if c >= 3 else codes.UNKNOT for b in heights.feasible_cells(d)[0]]
        if c:
            kinds += [k.mirror() for k in kinds]
        assert tuple(sorted(k.label for k in kinds)) == r.classes, r.ordering


def test_census_rejects_large_n():
    with pytest.raises(InvalidParameterError):
        search_ngon(11)


def test_census_and_selection_build_no_certificates(monkeypatch):
    # both read the bits of the walked half and keep no heights
    built = []
    certificate = heights._certificate

    def spy(z, margin):
        built.append(margin)
        return certificate(z, margin)

    monkeypatch.setattr(heights, "_certificate", spy)
    search_ngon(7)
    verify_selection(range(7, 31))
    assert built == []
    d = diagram_from_ordering(regular_ngon(7),
                              SEVEN_GON_FEASIBLE_TREFOIL_ORDERING)
    feas = feasible_assignments(d)
    assert len(built) == len(feas) > 0  # the spy sees every certificate


def test_census_labels_equal_the_labels_of_every_assignment(
        heptagon_census, octagon_census):
    # the census labels the walked half and gives each total flip the
    # mirror of its cell's label; labelling every feasible assignment
    # must give the same classes
    octagram = (0, 3, 6, 1, 4, 7, 2, 5)
    clean8 = [r for r in octagon_census.records if not r.degenerate]
    records = [r for r in heptagon_census.records if not r.degenerate]
    records += [r for r in clean8 if r.ordering == octagram]
    records += random.Random(22).sample(clean8, 40)
    assert len(records) == 36 + 1 + 40
    chiral = 0
    for r in records:
        d = diagram_from_ordering(regular_ngon(r.n), Ordering(r.ordering))
        table = BracketTable(d)
        feas = feasible_assignments(d)
        assert r.feasible == len(feas)
        assert r.classes == tuple(sorted(
            table.classify(a).label for a, _ in feas)), r.ordering
        chiral += any(label.endswith("_left") for label in r.classes)
    assert chiral > 5


# ---------------------------------------------------------------------------
# Vector sets beyond the regular n-gon, from rational unit vectors


def _rational_vectors(pairs) -> VectorSet:
    assert sum(x for x, _ in pairs) == sum(y for _, y in pairs) == 0
    assert all(x * x + y * y == 1 for x, y in pairs)
    return VectorSet.from_pairs((float(x), float(y)) for x, y in pairs)


def test_rational_hexagon_gives_a_trefoil():
    # six unit vectors with no central symmetry already give the trefoil
    # that the regular hexagon cannot
    vs = _rational_vectors([
        (Fraction(-1), Fraction(0)), (Fraction(-63, 65), Fraction(-16, 65)),
        (Fraction(0), Fraction(1)), (Fraction(16, 65), Fraction(-63, 65)),
        (Fraction(4, 5), Fraction(3, 5)), (Fraction(12, 13), Fraction(-5, 13))])
    d = diagram_from_ordering(vs, Ordering((0, 2, 5, 1, 4, 3)))
    assert not d.is_degenerate
    assert d.n_crossings == 5
    table = BracketTable(d)
    knots = {}
    for a, cert in feasible_assignments(d):
        label = table.classify(a).label
        if label == "unknot":
            continue
        knots[a.bits] = label
        assert all(s > 0 for s in exact_slacks(
            constraints_from_assignment(d, a), cert.z))
    assert knots == {14: "trefoil_right", 17: "trefoil_left"}


def test_rational_set_closed_under_negation_gives_no_knot():
    # like the regular hexagon, {+-u, +-v, +-w} knots in no ordering
    half = [(Fraction(1), Fraction(0)), (Fraction(3, 5), Fraction(4, 5)),
            (Fraction(-5, 13), Fraction(12, 13))]
    vs = _rational_vectors(half + [(-x, -y) for x, y in half])
    labels = Counter()
    orderings = 0
    for ordering, _ in canonical_ordering_classes(6, False):
        d = diagram_from_ordering(vs, ordering)
        assert not d.is_degenerate, ordering.perm
        table = BracketTable(d)
        labels.update(table.classify(a).label
                      for a, _ in feasible_assignments(d))
        orderings += 1
    assert orderings == 120
    assert labels == {"unknot": 138}
