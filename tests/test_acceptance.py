"""Acceptance gate: every headline claim of the package, end to end.

Each test reproduces one deliverable at its stated tolerance and runtime
budget.  Four sub-claims are marked as strict expected failures because
exact counterexamples show they cannot hold; each such xfail has a passing
companion test that pins down the counterexample itself:

* the alternating assignment of the exact 7-gon trefoil selection diagram
  is NOT height-feasible (the system is boundary-degenerate: it admits
  heights with every slack equal to zero but none strictly positive);
* consequently the selection sweep's realizability sub-claim fails for
  every n, even though all geometric checks and the projection
  classification pass;
* the 8-gon census DOES contain cinquefoil knots: the {8/3} star ordering
  (0, 3, 6, 1, 4, 7, 2, 5) has 16 crossings and 16 feasible assignments
  whose Jones polynomial, determinant, and tricolorability all match the
  (2,5) torus knot, with height certificates that survive exact rational
  re-verification;
* the first figure-eight is not at n = 8: in the 7-gon census the {7/3}
  heptagram (0, 3, 6, 2, 5, 1, 4) has 14 crossings and 28 feasible
  assignments labelled figure-eight, each with height certificates whose
  slacks are positive in exact rational arithmetic.  Only 0_1, 3_1 and
  4_1 have stick number at most 7, so the label is no Jones collision.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from stickknots.geometry import (
    Ordering,
    detect_crossings,
    diagram_from_ordering,
    regular_ngon,
)
from stickknots.codes import (
    FIGURE_EIGHT_PD,
    BracketTable,
    CrossingAssignment,
    alternating_assignment,
    classify,
    determinant,
    diagram_writhe,
    extract_gauss_code,
    gauss_to_pd,
    jones,
    pd_writhe,
    tricolorable,
)
from stickknots.heights import (
    HeightCertificate,
    constraints_from_assignment,
    feasible_assignments,
    solve_feasibility,
    verify_certificate,
    vertical_stick_augmentation,
)
from stickknots.constructions import (
    SEVEN_GON_TREFOIL_ORDERING,
    exhaustive_6gon_check,
    figure_eight_8gon,
    pentagram_5_1,
    search_ngon,
    trefoil_reference_system,
    trefoil_selection,
    verify_selection,
)
from stickknots.triple import classify_triple_plus_one

from conftest import (
    exact_slacks,
    exact_walk_events,
    fm_feasible,
    random_integer_walk,
    walk_from_integer_vertices,
)

OCTAGRAM = Ordering((0, 3, 6, 1, 4, 7, 2, 5))
# one of the 16 feasible assignments of the octagram that form a cinquefoil
OCTAGRAM_CINQUEFOIL_BITS = 1477
HEPTAGRAM = Ordering((0, 3, 6, 2, 5, 1, 4))
# the feasible assignments of the heptagram that form a figure-eight
HEPTAGRAM_FIGURE_EIGHT_BITS = (
    896, 936, 1016, 1537, 1697, 2017, 3079, 3719, 3968, 3973, 6175, 7681,
    7701, 7711, 8672, 8682, 8702, 10208, 12410, 12415, 12664, 13304, 14366,
    14686, 14846, 15367, 15447, 15487)


# ---------------------------------------------------------------------------
# 1. Worked 7-gon trefoil: crossing parameters and certified slacks


def test_01_trefoil_constraints_reproduce_worked_parameters():
    start = time.perf_counter()
    d = diagram_from_ordering(regular_ngon(7), SEVEN_GON_TREFOIL_ORDERING)
    by_edges = {(c.edge_a, c.edge_b): c for c in d.crossings}
    assert set(by_edges) == {(0, 4), (0, 5), (3, 6)}
    # t1 and t2 are the under-strand parameters at the two corner
    # crossings; t3 is the over-strand parameter at the interior crossing
    assert by_edges[(0, 5)].t_b == pytest.approx(0.5549889, abs=1e-4)
    assert by_edges[(3, 6)].t_b == pytest.approx(0.445043715, abs=1e-4)
    assert by_edges[(0, 4)].t_a == pytest.approx(0.6919982324, abs=1e-4)

    system, solution, slacks = trefoil_reference_system()
    assert solution == (1.0, -0.7, 7.0, 3.0, 0.1)
    res = verify_certificate(
        system, HeightCertificate(z=solution, margin=min(slacks)))
    assert res.ok
    got = system.slacks(solution)
    for got_s, want_s in zip(got, (0.05651887, 0.273163394, 2.056012375)):
        assert got_s == pytest.approx(want_s, abs=1e-4)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 2. 6-gon triviality


def test_02_six_gon_every_ordering_every_assignment_is_unknot():
    start = time.perf_counter()
    rep = exhaustive_6gon_check()
    assert rep.orderings == 120
    assert not rep.unresolved
    assert set(rep.class_counts) == {"unknot"}
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 3. 7-gon trefoil selection


def test_03_seven_gon_selection_projection_is_a_three_crossing_trefoil():
    start = time.perf_counter()
    d = diagram_from_ordering(regular_ngon(7), trefoil_selection(7))
    assert d.n_crossings == 3
    a = alternating_assignment(d)
    assert a is not None
    assert classify(d, a).kind == "trefoil"
    assert time.perf_counter() - start < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="the alternating height system of the exact selection diagram "
    "is boundary-degenerate: feasible at slack zero, never strictly; see "
    "the companion positive-left-null-vector test below")
def test_03_seven_gon_selection_alternating_assignment_is_feasible():
    d = diagram_from_ordering(regular_ngon(7), trefoil_selection(7))
    a = alternating_assignment(d)
    system = constraints_from_assignment(d, a)
    assert solve_feasibility(system) is not None


def test_03_companion_infeasibility_certificate_for_the_selection_system():
    # Gordan's alternative: a strictly positive combination of the
    # constraint rows summing to zero proves no strictly positive slacks
    d = diagram_from_ordering(regular_ngon(7), trefoil_selection(7))
    a = alternating_assignment(d)
    system = constraints_from_assignment(d, a)
    rows = system.rows
    _, _, vt = np.linalg.svd(rows.T, full_matrices=True)
    lam = vt[-1]
    if lam.sum() < 0:
        lam = -lam
    assert np.max(np.abs(rows.T @ lam)) < 1e-9
    assert np.all(lam > 1e-6)


# ---------------------------------------------------------------------------
# 4. Selection sweep n = 7 .. 100


def test_04_selection_sweep_checks_hold_for_all_n_up_to_100():
    start = time.perf_counter()
    rep = verify_selection(range(7, 101))
    assert rep.passed
    assert len(rep.results) == 94
    for r in rep.results:
        assert r.crossings == 3
        assert r.subwalk_pairs == ((0, 2), (0, 3), (1, 3))
        assert 0.149042 < r.sin_phi < 0.8660254
        assert -0.369009 < r.third_tip[1] < 0.0
        assert r.third_tip[0] > 0.0
        assert r.fourth_above_line
        assert r.projection_class.startswith("trefoil")
    assert time.perf_counter() - start < 5.0


@pytest.mark.xfail(
    strict=True,
    reason="strict stick realizability of the exact selection diagram "
    "fails for every n, for the same boundary degeneracy as at n = 7")
def test_04_selection_sweep_diagrams_are_strictly_realizable():
    rep = verify_selection(range(7, 101))
    assert all(r.feasible_trefoil for r in rep.results)


# ---------------------------------------------------------------------------
# 5. 8-gon figure-eight


def test_05_eight_gon_reordering_realizes_the_figure_eight():
    start = time.perf_counter()
    d, a, cert, k = figure_eight_8gon()
    assert d.n_crossings == 4
    assert k.kind == "figure_eight"
    system = constraints_from_assignment(d, a)
    assert verify_certificate(system, cert).ok
    pd = gauss_to_pd(extract_gauss_code(d, a))
    assert determinant(pd) == 5
    j = jones(pd, diagram_writhe(d, a))
    assert j == jones(FIGURE_EIGHT_PD, pd_writhe(FIGURE_EIGHT_PD))
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# 6. Pentagram cinquefoil with vertical sticks


def test_06_pentagram_cinquefoil_needs_exactly_the_vertical_sticks():
    start = time.perf_counter()
    d, splits, a, cert, k, sticks = pentagram_5_1()
    assert d.n_crossings == 5
    assert k.kind == "cinquefoil"
    assert sticks == vertical_stick_augmentation(d, splits) == 8
    assert verify_certificate(
        constraints_from_assignment(d, a, splits), cert).ok
    assert solve_feasibility(constraints_from_assignment(d, a)) is None
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 7. 8-gon census


def test_07_census_contains_figure_eight_and_trefoil(octagon_census):
    kinds = octagon_census.kind_set()
    assert "figure_eight" in kinds
    assert "trefoil" in kinds
    assert "unknot" in kinds


@pytest.mark.xfail(
    strict=True,
    reason="the census DOES contain cinquefoils: the {8/3} star ordering "
    "carries 16 feasible cinquefoil assignments; the companion test below "
    "verifies one end to end")
def test_07_census_contains_no_cinquefoil(octagon_census):
    assert "cinquefoil" not in octagon_census.kind_set()


def test_07_companion_octagram_cinquefoil_counterexample(octagon_census):
    star = [r for r in octagon_census.records if r.ordering == OCTAGRAM.perm
            or Ordering(r.ordering).perm == OCTAGRAM.perm]
    # the census may keep a different orbit representative; verify the
    # ordering directly regardless
    d = diagram_from_ordering(regular_ngon(8), OCTAGRAM)
    assert d.n_crossings == 16
    assert not d.is_degenerate

    a = CrossingAssignment.from_bits(16, OCTAGRAM_CINQUEFOIL_BITS)
    system = constraints_from_assignment(d, a)
    cert = solve_feasibility(system)
    assert cert is not None
    res = verify_certificate(system, cert)
    assert res.ok and res.min_slack > 1e-6

    table = BracketTable(d)
    k = table.classify(a)
    assert k.kind == "cinquefoil"
    pd = gauss_to_pd(extract_gauss_code(d, a))
    assert table.jones(a) == jones(pd, diagram_writhe(d, a))
    assert determinant(pd) == 5
    assert not tricolorable(extract_gauss_code(d, a))

    cinq = {label for r in octagon_census.records for label in r.classes
            if label.startswith("cinquefoil")}
    assert cinq, "census records must report the cinquefoil classes"
    assert star == [] or any(
        label.startswith("cinquefoil") for r in star for label in r.classes)


#: Each kind of knot the censuses label: the least n of the regular n-gon
#: whose census has it (from n = 6, the first n that can knot), and the
#: first class representative there that carries it; then how many of that
#: class's feasible assignments carry it, and the smallest of their bits.
FIRST_APPEARANCE = {
    "unknot": (6, (0, 1, 2, 3, 4, 5), 1, 0),
    "trefoil": (7, (0, 1, 4, 5, 2, 6, 3), 2, 9),
    "figure_eight": (7, HEPTAGRAM.perm, 28, 896),
    "cinquefoil": (8, OCTAGRAM.perm, 16, 1477),
    "three_twist": (8, OCTAGRAM.perm, 64, 453),
    "other": (8, OCTAGRAM.perm, 112, 385),
}


def _kind(label: str) -> str:
    return label.removesuffix("_left").removesuffix("_right")


def test_07_first_appearance_of_each_knot(heptagon_census, octagon_census):
    first = {}
    for catalog in (search_ngon(6), heptagon_census, octagon_census):
        for r in catalog.records:
            for label in r.classes:
                first.setdefault(_kind(label), (catalog.n, r.ordering, sum(
                    _kind(other) == _kind(label) for other in r.classes)))
    witnesses = {}
    for kind, (n, ordering, _) in first.items():
        d = diagram_from_ordering(regular_ngon(n), Ordering(ordering))
        table = BracketTable(d)
        a, cert = next((a, cert) for a, cert in feasible_assignments(d)
                       if table.classify(a).kind == kind)
        witnesses[kind] = a.bits
        assert all(s > 0 for s in exact_slacks(
            constraints_from_assignment(d, a), cert.z)), kind
    assert {kind: (*first[kind], witnesses[kind])
            for kind in first} == FIRST_APPEARANCE


@pytest.mark.xfail(
    strict=True,
    reason="the 7-gon census DOES contain figure-eights: the {7/3} "
    "heptagram carries 28 feasible figure-eight assignments; the companion "
    "test below re-checks every certificate in exact arithmetic")
def test_07_seven_gon_census_contains_no_figure_eight(heptagon_census):
    assert "figure_eight" not in heptagon_census.kind_set()


def test_07_companion_heptagram_figure_eight_counterexample(heptagon_census):
    d = diagram_from_ordering(regular_ngon(7), HEPTAGRAM)
    assert d.n_crossings == 14
    assert not d.is_degenerate
    (record,) = [r for r in heptagon_census.records
                 if tuple(r.ordering) == HEPTAGRAM.perm]
    assert record.feasible == 490
    assert record.classes.count("figure_eight") == 28

    table = BracketTable(d)
    eights = [(a, cert) for a, cert in feasible_assignments(d)
              if table.classify(a).kind == "figure_eight"]
    assert tuple(a.bits for a, _ in eights) == HEPTAGRAM_FIGURE_EIGHT_BITS
    for a, cert in eights:
        # every slack is positive exactly, and by over 1/1000 of max|z|,
        # far beyond what rounding the row coefficients could move
        slacks = exact_slacks(constraints_from_assignment(d, a), cert.z)
        assert min(slacks) * 1000 > max(abs(Fraction(h)) for h in cert.z)

    a = CrossingAssignment.from_bits(14, 3973)
    pd = gauss_to_pd(extract_gauss_code(d, a))
    assert determinant(pd) == 5
    assert (table.jones(a) == jones(pd, diagram_writhe(d, a))
            == jones(FIGURE_EIGHT_PD, pd_writhe(FIGURE_EIGHT_PD)))


# ---------------------------------------------------------------------------
# 8. Triple crossing plus one


def test_08_triple_plus_one_classifies_to_unknot_or_trefoil_only():
    start = time.perf_counter()
    kinds = {k.kind for k in classify_triple_plus_one()}
    assert kinds == {"unknot", "trefoil"}
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 9. Property-suite representatives under a fixed seed


def test_09_geometry_oracle_representative():
    start = time.perf_counter()
    rng = random.Random(20260824)
    crossing_walks = 0
    for _ in range(1000):
        verts = random_integer_walk(rng, rng.randint(4, 7))
        transversals, degenerate = exact_walk_events(verts)
        d = detect_crossings(walk_from_integer_vertices(verts))
        if not degenerate:
            got = {(c.edge_a, c.edge_b) for c in d.crossings}
            assert got == {(i, j) for i, j, _, _ in transversals}
            assert not d.degeneracies
            crossing_walks += bool(transversals)
    assert crossing_walks > 100
    assert time.perf_counter() - start < 60.0


def test_09_codes_invariants_representative():
    start = time.perf_counter()
    # kink calibration: bracket of a one-crossing unknot is -A^(3w)
    verts = [(0, 0), (4, 0), (4, 2), (2, 2), (2, -2), (0, -2)]
    d = detect_crossings(walk_from_integer_vertices(verts))
    for bits in (0, 1):
        a = CrossingAssignment.from_bits(1, bits)
        pd = gauss_to_pd(extract_gauss_code(d, a))
        w = diagram_writhe(d, a)
        assert jones(pd, w).to_json() == {"0": 1}
    # mirror symmetry on a chiral projection
    d7 = diagram_from_ordering(regular_ngon(7), SEVEN_GON_TREFOIL_ORDERING)
    a = alternating_assignment(d7)
    pd = gauss_to_pd(extract_gauss_code(d7, a))
    j = jones(pd, diagram_writhe(d7, a))
    m = a.flipped()
    pd_m = gauss_to_pd(extract_gauss_code(d7, m))
    assert jones(pd_m, diagram_writhe(d7, m)) == j.mirror()
    assert time.perf_counter() - start < 10.0


def test_09_heights_solver_vs_elimination_representative():
    from test_heights import _random_system

    start = time.perf_counter()
    rng = random.Random(7)
    for _ in range(300):
        system = _random_system(rng)
        cert = solve_feasibility(system)
        assert (cert is not None) == fm_feasible(system)
        if cert is not None:
            assert verify_certificate(system, cert).ok
            for c in (0.5, 2.0, 10.0):
                scaled = HeightCertificate(
                    z=tuple(c * z for z in cert.z), margin=c * cert.margin)
                assert verify_certificate(system, scaled).ok
    assert time.perf_counter() - start < 60.0


def test_09_flip_antisymmetry_representative():
    d = diagram_from_ordering(regular_ngon(7), Ordering((0, 2, 4, 1, 6, 3, 5)))
    feas = dict((a.bits, cert) for a, cert in feasible_assignments(d))
    full = (1 << d.n_crossings) - 1
    assert feas
    for bits, cert in feas.items():
        assert feas[full ^ bits].z == tuple(-z for z in cert.z)
