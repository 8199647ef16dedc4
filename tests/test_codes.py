"""Diagram codes, bracket polynomial, classification."""

import pytest

from stickknots import codes
from stickknots.geometry import (
    Ordering,
    SizeError,
    diagram_from_ordering,
    regular_ngon,
)
from stickknots.codes import (
    CINQUEFOIL_PD,
    FIGURE_EIGHT_PD,
    THREE_TWIST_PD,
    TREFOIL_PD,
    UNKNOT,
    BracketTable,
    CrossingAssignment,
    GaussCode,
    GaussEntry,
    InvalidParameterError,
    LaurentPoly,
    alternating_assignment,
    classify,
    determinant,
    diagram_writhe,
    extract_gauss_code,
    gauss_to_pd,
    jones,
    kauffman_bracket,
    merge_crossingless_runs,
    pd_writhe,
    stick_filter,
    tricolorable,
)

from conftest import walk_from_integer_vertices
from stickknots.geometry import detect_crossings

TREFOIL_7GON = Ordering((0, 1, 3, 5, 6, 2, 4))
PENTAGRAM = Ordering((0, 3, 1, 4, 2))
FIGURE_EIGHT_8GON = Ordering((0, 2, 4, 7, 1, 6, 3, 5))
OCTAGRAM = Ordering((0, 3, 6, 1, 4, 7, 2, 5))
STAR_9_4 = Ordering((0, 4, 8, 3, 7, 2, 6, 1, 5))


def _diagram(n, ordering):
    return diagram_from_ordering(regular_ngon(n), ordering)


# ---------------------------------------------------------------------------
# Assignments and Gauss codes


def test_assignment_bits_round_trip_and_flip():
    a = CrossingAssignment.from_bits(5, 0b10110)
    assert a.bits == 0b10110
    assert a.flipped().bits == 0b01001
    assert len(a) == 5


def test_gauss_code_requires_once_over_once_under():
    with pytest.raises(InvalidParameterError):
        GaussCode((GaussEntry(0, True, 1), GaussEntry(0, True, 1)))


def test_gauss_code_rejects_visits_with_different_signs():
    with pytest.raises(InvalidParameterError):
        GaussCode((GaussEntry(0, True, 1), GaussEntry(0, False, -1)))


def test_signed_gauss_code_of_trefoil_gives_reference_pd():
    # visit i is entered by arc i+1; all three crossings are positive
    g = GaussCode(tuple(GaussEntry(k, over, 1) for k, over in (
        (0, False), (2, True), (1, False), (0, True), (2, False), (1, True))))
    assert gauss_to_pd(g) == TREFOIL_PD


def test_gauss_code_of_trefoil_projection():
    d = _diagram(7, TREFOIL_7GON)
    a = alternating_assignment(d)
    g = extract_gauss_code(d, a)
    assert len(g) == 6
    overs = [e.over for e in g.entries]
    # alternating: over/under strictly alternates along the traversal
    for prev, nxt in zip(overs, overs[1:] + overs[:1]):
        assert prev != nxt


def test_pd_writhe_matches_geometric_writhe():
    for n, ordering in ((7, TREFOIL_7GON), (5, PENTAGRAM),
                        (8, FIGURE_EIGHT_8GON)):
        d = _diagram(n, ordering)
        for bits in range(1 << d.n_crossings):
            a = CrossingAssignment.from_bits(d.n_crossings, bits)
            g = extract_gauss_code(d, a)
            pd = gauss_to_pd(g)
            assert pd_writhe(pd) == diagram_writhe(d, a)
            assert sum(e.sign for e in g.entries) == 2 * diagram_writhe(d, a)


# ---------------------------------------------------------------------------
# Laurent polynomials


def test_laurent_arithmetic_and_mirror():
    p = LaurentPoly({2: 1, 0: -3})
    q = LaurentPoly({-2: 2})
    assert (p + q).to_json() == {"2": 1, "0": -3, "-2": 2}
    assert (p * q).to_json() == {"0": 2, "-2": -6}
    assert p.mirror().to_json() == {"-2": 1, "0": -3}
    assert LaurentPoly.from_json(p.to_json()) == p
    assert p.evaluate(2.0) == pytest.approx(1.0)
    assert (-p + p) == LaurentPoly.zero()


# ---------------------------------------------------------------------------
# Bracket and Jones against reference diagrams


def test_reference_pd_determinants():
    assert determinant(TREFOIL_PD) == 3
    assert determinant(FIGURE_EIGHT_PD) == 5
    assert determinant(CINQUEFOIL_PD) == 5
    assert determinant(THREE_TWIST_PD) == 7


def test_kink_bracket_calibration():
    # single-crossing diagram: its bracket must be -A^(3w), hence Jones 1
    verts = [(0, 0), (4, 0), (4, 2), (2, 2), (2, -2), (0, -2)]
    d = detect_crossings(walk_from_integer_vertices(verts))
    assert d.n_crossings == 1
    for bits in (0, 1):
        a = CrossingAssignment.from_bits(1, bits)
        pd = gauss_to_pd(extract_gauss_code(d, a))
        w = diagram_writhe(d, a)
        assert w in (-1, 1)
        assert kauffman_bracket(pd) == LaurentPoly.monomial(-1, 3 * w)
        assert jones(pd, w) == LaurentPoly.one()
        assert classify(d, a).kind == "unknot"


def test_jones_mirror_symmetry():
    for n, ordering in ((7, TREFOIL_7GON), (5, PENTAGRAM)):
        d = _diagram(n, ordering)
        a = alternating_assignment(d)
        pd = gauss_to_pd(extract_gauss_code(d, a))
        j = jones(pd, diagram_writhe(d, a))
        flipped = a.flipped()
        pd_m = gauss_to_pd(extract_gauss_code(d, flipped))
        j_m = jones(pd_m, diagram_writhe(d, flipped))
        assert j_m == j.mirror()
        assert j_m != j  # trefoil and cinquefoil are chiral


def test_figure_eight_jones_is_amphichiral():
    d = _diagram(8, FIGURE_EIGHT_8GON)
    a = alternating_assignment(d)
    pd = gauss_to_pd(extract_gauss_code(d, a))
    j = jones(pd, diagram_writhe(d, a))
    assert j == j.mirror()
    assert j == jones(FIGURE_EIGHT_PD, pd_writhe(FIGURE_EIGHT_PD))


def test_classification_of_the_named_projections():
    assert classify(_diagram(7, TREFOIL_7GON),
                    alternating_assignment(_diagram(7, TREFOIL_7GON))
                    ).kind == "trefoil"
    assert classify(_diagram(5, PENTAGRAM),
                    alternating_assignment(_diagram(5, PENTAGRAM))
                    ).kind == "cinquefoil"
    assert classify(_diagram(8, FIGURE_EIGHT_8GON),
                    alternating_assignment(_diagram(8, FIGURE_EIGHT_8GON))
                    ).kind == "figure_eight"


def test_classify_few_crossings_is_unknot():
    d = _diagram(6, Ordering((0, 1, 2, 3, 4, 5)))
    assert classify(d, CrossingAssignment(())) == UNKNOT


def test_classify_invariant_under_rotation_and_reversal():
    base = classify(_diagram(7, TREFOIL_7GON),
                    alternating_assignment(_diagram(7, TREFOIL_7GON)))
    for variant in (TREFOIL_7GON.rotated(3), TREFOIL_7GON.reversed_()):
        d = _diagram(7, variant)
        a = alternating_assignment(d)
        assert classify(d, a).kind == base.kind


def test_jones_agrees_across_different_trefoil_realizations():
    # the same knot from unrelated geometry yields the same Jones polynomial
    from stickknots.constructions import trefoil_selection
    reference = None
    for n in (7, 9, 12):
        d = diagram_from_ordering(regular_ngon(n), trefoil_selection(n))
        a = alternating_assignment(d)
        pd = gauss_to_pd(extract_gauss_code(d, a))
        j = jones(pd, diagram_writhe(d, a))
        k = classify(d, a)
        assert k.kind == "trefoil"
        canonical = j if k.chirality == "right" else j.mirror()
        if reference is None:
            reference = canonical
        assert canonical == reference


# ---------------------------------------------------------------------------
# Tricolorability


def test_tricolorability_matches_knot_types():
    d7 = _diagram(7, TREFOIL_7GON)
    assert tricolorable(extract_gauss_code(d7, alternating_assignment(d7)))
    d8 = _diagram(8, FIGURE_EIGHT_8GON)
    assert not tricolorable(extract_gauss_code(d8, alternating_assignment(d8)))
    d5 = _diagram(5, PENTAGRAM)
    assert not tricolorable(extract_gauss_code(d5, alternating_assignment(d5)))


# ---------------------------------------------------------------------------
# Shared bracket table


def test_bracket_table_matches_direct_state_sum():
    d = _diagram(5, PENTAGRAM)
    table = BracketTable(d)
    for bits in range(1 << d.n_crossings):
        a = CrossingAssignment.from_bits(d.n_crossings, bits)
        pd = gauss_to_pd(extract_gauss_code(d, a))
        assert table.bracket(a) == kauffman_bracket(pd)
        assert table.writhe(a) == diagram_writhe(d, a)
        assert table.jones(a) == jones(pd, diagram_writhe(d, a))
        assert table.classify(a).label == classify(d, a).label


def test_bracket_table_spot_check_large_projection():
    d = _diagram(8, OCTAGRAM)
    table = BracketTable(d)
    for bits in (0, 1477, 34879, 65535):
        a = CrossingAssignment.from_bits(16, bits)
        pd = gauss_to_pd(extract_gauss_code(d, a))
        assert table.jones(a) == jones(pd, diagram_writhe(d, a))


def test_state_sum_cap_raises_before_enumerating_states(monkeypatch):
    d = _diagram(9, STAR_9_4)
    assert not d.is_degenerate and d.n_crossings == 27
    a = CrossingAssignment.from_bits(27, 0)
    pd = gauss_to_pd(extract_gauss_code(d, a))

    def no_state(*args):
        raise AssertionError("a smoothing state was enumerated")

    monkeypatch.setattr(codes, "_UnionFind", no_state)
    with pytest.raises(SizeError):
        classify(d, a)
    with pytest.raises(SizeError):
        BracketTable(d)
    with pytest.raises(SizeError):
        kauffman_bracket(pd)


# ---------------------------------------------------------------------------
# Stick counting


def test_merge_crossingless_runs_examples():
    assert merge_crossingless_runs(_diagram(8, Ordering(tuple(range(8))))) == 3
    assert merge_crossingless_runs(_diagram(7, TREFOIL_7GON)) == 7
    assert merge_crossingless_runs(_diagram(5, PENTAGRAM)) == 5


def test_merged_sticks_never_beat_stick_number():
    from stickknots.codes import make_knot_class
    trefoil = make_knot_class("trefoil", "right")
    assert stick_filter(6, trefoil)
    assert not stick_filter(5, trefoil)
    assert stick_filter(3, UNKNOT)


def test_alternating_assignment_existence():
    assert alternating_assignment(_diagram(5, PENTAGRAM)) is not None
    assert alternating_assignment(_diagram(8, OCTAGRAM)) is not None
    empty = alternating_assignment(_diagram(6, Ordering(tuple(range(6)))))
    assert empty is not None and len(empty) == 0
