"""Diagram codes, bracket polynomial, classification."""

import random

import pytest

from stickknots import codes
from stickknots.geometry import (
    EPS_DEFAULT,
    Diagram,
    Ordering,
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
    classify_jones,
    determinant,
    diagram_writhe,
    extract_gauss_code,
    gauss_to_pd,
    jones,
    kauffman_bracket,
    make_knot_class,
    merge_crossingless_runs,
    pd_writhe,
    stick_filter,
    tricolorable,
)

from conftest import (
    cut_walk_chord_is_clear,
    exact_merged_sticks,
    exact_vertex_contacts,
    exact_walk_events,
    random_integer_walk,
    state_sum_bracket,
    walk_from_integer_vertices,
)
from stickknots.geometry import detect_crossings

TREFOIL_7GON = Ordering((0, 1, 3, 5, 6, 2, 4))
PENTAGRAM = Ordering((0, 3, 1, 4, 2))
FIGURE_EIGHT_8GON = Ordering((0, 2, 4, 7, 1, 6, 3, 5))
OCTAGRAM = Ordering((0, 3, 6, 1, 4, 7, 2, 5))
STAR_9_4 = Ordering((0, 4, 8, 3, 7, 2, 6, 1, 5))
TEN_CROSSING_9GON = Ordering((0, 1, 4, 5, 8, 3, 7, 2, 6))


def _diagram(n, ordering):
    return diagram_from_ordering(regular_ngon(n), ordering)


def _gauss_writhe(d, a):
    """The writhe summed crossing by crossing off the signed Gauss code,
    independently of the projection's sign masks."""
    return sum(e.sign for e in extract_gauss_code(d, a).entries) // 2


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
    kink = detect_crossings(walk_from_integer_vertices(
        [(0, 0), (4, 0), (4, 2), (2, 2), (2, -2), (0, -2)]))
    for d in (_diagram(7, TREFOIL_7GON), _diagram(5, PENTAGRAM),
              _diagram(8, FIGURE_EIGHT_8GON), kink):
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
    assert (p * q).to_json() == {"0": 2, "-2": -6}
    assert p.mirror().to_json() == {"-2": 1, "0": -3}
    assert LaurentPoly.from_json(p.to_json()) == p
    assert p.evaluate(2.0) == pytest.approx(1.0)


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
        assert kauffman_bracket(pd) == LaurentPoly({3 * w: -1})
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
        assert table.writhe(a) == pd_writhe(pd) == diagram_writhe(d, a)
        assert table.jones(a) == jones(pd, diagram_writhe(d, a))
        assert table.classify(a).label == classify(d, a).label


def test_bracket_table_spot_check_large_projection():
    d = _diagram(8, OCTAGRAM)
    table = BracketTable(d)
    for bits in (0, 1477, 34879, 65535):
        a = CrossingAssignment.from_bits(16, bits)
        pd = gauss_to_pd(extract_gauss_code(d, a))
        assert table.jones(a) == jones(pd, diagram_writhe(d, a))


def test_27_crossing_star_brackets_without_a_cap():
    d = _diagram(9, STAR_9_4)
    assert not d.is_degenerate and d.n_crossings == 27
    table = BracketTable(d)
    rng = random.Random(27)
    assignments = [CrossingAssignment.from_bits(27, 0), alternating_assignment(d)]
    assignments += [CrossingAssignment.from_bits(27, rng.randrange(1 << 27))
                    for _ in range(3)]
    for a in assignments:
        pd = gauss_to_pd(extract_gauss_code(d, a))
        j = jones(pd, diagram_writhe(d, a))
        assert j.evaluate(1) == 1
        flipped = a.flipped()
        pd_m = gauss_to_pd(extract_gauss_code(d, flipped))
        assert jones(pd_m, diagram_writhe(d, flipped)) == j.mirror()
        assert determinant(pd) % 2 == 1
        assert table.jones(a) == j
        assert classify(d, a) == table.classify(a) == classify_jones(j)


def test_labels_agree_on_a_sample_of_every_clean_7_and_8gon_class():
    from stickknots.constructions import canonical_ordering_classes
    rng = random.Random(32)
    seen = set()
    for n in (7, 8):
        vs = regular_ngon(n)
        for ordering, _ in canonical_ordering_classes(n):
            d = diagram_from_ordering(vs, ordering)
            if d.is_degenerate:
                continue
            c = d.n_crossings
            table = BracketTable(d)
            for bits in rng.sample(range(1 << c), min(1 << c, 32)):
                a = CrossingAssignment.from_bits(c, bits)
                j = jones(gauss_to_pd(extract_gauss_code(d, a)),
                          diagram_writhe(d, a))
                k = classify(d, a)
                assert k == table.classify(a) == classify_jones(j)
                seen.add(k)
    assert seen == set(codes._reference_jones().values()) | {codes.OTHER}


def test_table_classify_checks_the_assignment_below_three_crossings():
    d = _diagram(5, Ordering((0, 1, 2, 3, 4)))
    assert d.n_crossings == 0
    a = CrossingAssignment((False,) * 7)
    with pytest.raises(InvalidParameterError, match="covers 7 crossings"):
        BracketTable(d).classify(a)
    with pytest.raises(InvalidParameterError, match="covers 7 crossings"):
        classify(d, a)
    assert BracketTable(d).classify(CrossingAssignment(())) == UNKNOT


@pytest.mark.parametrize("pd, message", [
    (((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 7)), "arc label 3 appears 1 times"),
    (((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 1)), "arc label 1 appears 3 times"),
], ids=["once", "three_times"])
def test_pd_with_an_arc_not_used_twice_is_rejected(pd, message):
    for evaluate in (kauffman_bracket, lambda pd: jones(pd, 3), determinant):
        with pytest.raises(InvalidParameterError, match=message):
            evaluate(pd)


def test_table_builds_its_contraction_plan_once(plan_builds):
    d = _diagram(8, OCTAGRAM)
    table = BracketTable(d)
    assert plan_builds == []  # built on first use, not with the table
    rng = random.Random(16)
    for bits in rng.sample(range(1 << 16), 20):
        table.classify(CrossingAssignment.from_bits(16, bits))
    assert plan_builds == [table._projection.pd]


def test_table_below_three_crossings_builds_no_plan(plan_builds):
    d = _diagram(6, Ordering((0, 1, 2, 3, 4, 5)))
    table = BracketTable(d)
    assert table.classify(CrossingAssignment(())) == UNKNOT
    kink = detect_crossings(walk_from_integer_vertices(
        [(0, 0), (4, 0), (4, 2), (2, 2), (2, -2), (0, -2)]))
    for bits in (0, 1):
        assert BracketTable(kink).classify(
            CrossingAssignment.from_bits(1, bits)) == UNKNOT
    assert plan_builds == []


def test_census_labels_build_no_laurent_poly(monkeypatch):
    from stickknots.constructions import search_ngon
    codes._reference_jones()  # built once per process, before any label
    built = []
    init = LaurentPoly.__init__

    def spy(self, coeffs=None):
        built.append(coeffs)
        init(self, coeffs)

    monkeypatch.setattr(LaurentPoly, "__init__", spy)
    catalog = search_ngon(7)
    assert sum(len(r.classes) for r in catalog.records) > 0
    assert built == []


def test_packed_reference_decodes_back_to_every_reference_key():
    reference = codes._reference_jones()
    fitted = set()
    for c in range(3, 31):
        half = 1 << 3 * c + 1
        for writhe in range(-c, c + 1):
            table = codes._packed_reference(c, writhe)
            back = {codes._decode(packed, c, writhe): k
                    for packed, k in table.items()}
            fits = [key for key in reference if all(
                (e + 5 * c + 3 * writhe) % 2 == 0
                and e + 5 * c + 3 * writhe >= 0 and -half <= coef < half
                for e, coef in key)]
            assert len(back) == len(table) == len(fits)
            for key in fits:
                assert back[key] == reference[key]
                fitted.add(key)
    assert fitted == set(reference)


def test_packed_reference_leaves_out_keys_that_cannot_occur(monkeypatch):
    # at c = 3 and writhe 1 a digit is 11 bits wide, and exponent e is
    # digit (e + 18) / 2 with its coefficient negated
    fake = {((0, 1),): "fits", ((0, -1 << 10),): "too wide",
            ((1, 1),): "odd exponent", ((-20, 1),): "below digit 0"}
    monkeypatch.setattr(codes, "_reference_jones", lambda: fake)
    table = codes._packed_reference.__wrapped__(3, 1)
    assert table == {-1 << 11 * 9: "fits"}
    assert codes._decode(-1 << 11 * 9, 3, 1) == ((0, 1),)


def test_labels_decode_nothing(monkeypatch):
    from stickknots.constructions import search_ngon
    codes._reference_jones()  # decoded once per process, before any label
    decodes = []
    decode = codes._decode

    def spy(*args):
        decodes.append(args)
        return decode(*args)

    monkeypatch.setattr(codes, "_decode", spy)
    catalog = search_ngon(7)
    assert sum(len(r.classes) for r in catalog.records) > 0
    d = _diagram(8, OCTAGRAM)
    table = BracketTable(d)
    rng = random.Random(25)
    for bits in rng.sample(range(1 << 16), 32):
        table.classify(CrossingAssignment.from_bits(16, bits))
    assert decodes == []


@pytest.mark.parametrize("n, ordering", [
    (7, TREFOIL_7GON), (5, PENTAGRAM), (8, FIGURE_EIGHT_8GON),
    (9, Ordering((0, 1, 4, 5, 8, 3, 7, 2, 6))),  # 10 crossings
])
def test_projection_writhe_is_the_diagram_writhe_on_every_flip(n, ordering):
    d = _diagram(n, ordering)
    c = d.n_crossings
    assert not d.is_degenerate and 3 <= c <= 10
    projection = BracketTable(d)._projection
    for bits in range(1 << c):
        a = CrossingAssignment.from_bits(c, bits)
        assert projection.writhe(bits) == _gauss_writhe(d, a)
        assert diagram_writhe(d, a) == projection.writhe(bits)


def test_projection_writhe_is_the_diagram_writhe_on_the_star():
    d = _diagram(9, STAR_9_4)
    projection = BracketTable(d)._projection
    rng = random.Random(1000)
    for _ in range(1000):
        bits = rng.randrange(1 << 27)
        a = CrossingAssignment.from_bits(27, bits)
        assert projection.writhe(bits) == _gauss_writhe(d, a)
        assert diagram_writhe(d, a) == projection.writhe(bits)


def test_tables_and_classify_share_one_plan_per_diagram(plan_builds):
    # the 9-gon scan's loop on the 8-gon classes: a table labels a sample,
    # then single-assignment classify labels more of the same diagram
    from stickknots.constructions import canonical_ordering_classes
    rng = random.Random(9)
    vs = regular_ngon(8)
    diagrams = 0
    for ordering, _ in canonical_ordering_classes(8):
        d = diagram_from_ordering(vs, ordering)
        c = d.n_crossings
        if d.is_degenerate or c < 3:
            continue
        diagrams += 1
        sample = [CrossingAssignment.from_bits(c, bits)
                  for bits in rng.sample(range(1 << c), min(1 << c, 6))]
        table = BracketTable(d)
        labels = [table.classify(a) for a in sample]
        assert [classify(d, a) for a in sample] == labels
    assert diagrams > 10
    assert len(plan_builds) == diagrams


def test_shared_plan_dies_with_its_diagram():
    # the projection lives in the diagram and holds no reference back, so
    # reference counting frees it with the diagram, with no gc pass
    import copy
    import weakref
    d = _diagram(8, OCTAGRAM)
    copied, key = copy.copy(d), hash(d)
    a = alternating_assignment(d)
    table = BracketTable(d)
    assert table.classify(a) == classify(d, a)
    assert d == copied and hash(d) == key
    ref = weakref.ref(table._projection)
    assert ref().plan is not None
    del d, table
    assert ref() is None


def test_degenerate_diagram_raises_on_every_classify():
    from stickknots.geometry import DegenerateDiagramError
    d = _diagram(7, Ordering((0, 1, 4, 6, 2, 5, 3)))
    assert d.is_degenerate
    a = CrossingAssignment((False,) * d.n_crossings)
    before = dict(vars(d))
    for _ in range(2):
        with pytest.raises(DegenerateDiagramError):
            classify(d, a)
        with pytest.raises(DegenerateDiagramError):
            BracketTable(d)
    assert vars(d) == before


def test_census_builds_at_most_one_plan_per_diagram(plan_builds):
    from stickknots.constructions import search_ngon
    catalog = search_ngon(7)
    labelled = [r for r in catalog.records
                if not r.degenerate and r.crossings >= 3 and r.feasible]
    assert labelled
    # one build per diagram that has an assignment to label, none otherwise
    assert len(plan_builds) == len(labelled)
    assert [len(pd) for pd in plan_builds] == [r.crossings for r in labelled]


def test_table_brackets_do_not_depend_on_call_order():
    rng = random.Random(87)
    for n, ordering in ((7, TREFOIL_7GON), (8, FIGURE_EIGHT_8GON),
                        (8, OCTAGRAM)):
        d = _diagram(n, ordering)
        c = d.n_crossings
        assignments = [CrossingAssignment.from_bits(c, bits)
                       for bits in rng.sample(range(1 << c), min(1 << c, 24))]
        forward = [BracketTable(d).bracket(a) for a in assignments]
        table = BracketTable(d)
        assert [table.bracket(a) for a in assignments] == forward
        table = BracketTable(d)
        assert [table.bracket(a) for a in reversed(assignments)] \
            == forward[::-1]
        first, second = BracketTable(d), BracketTable(d)
        interleaved = [(first if i % 2 else second).bracket(a)
                       for i, a in enumerate(assignments)]
        assert interleaved == forward
        assert [second.bracket(a) for a in assignments] == forward


def test_resumed_brackets_equal_fresh_evaluations():
    # every flip of a 10-crossing class, each twice, shuffled, one run of
    # repeats, and labelled through two tables that share one projection
    d = _diagram(9, TEN_CROSSING_9GON)
    c = d.n_crossings
    assert c == 10 and not d.is_degenerate
    first, second = BracketTable(d), BracketTable(d)
    projection = first._projection
    assert second._projection is projection
    flips = list(range(1 << c)) * 2
    random.Random(10).shuffle(flips)
    flips[100:100] = [flips[99]] * 3
    for i, flip in enumerate(flips):
        packed = codes._evaluate(projection.plan, flip)
        a = CrossingAssignment.from_bits(c, flip)
        table = (first, second)[i % 3 == 0]
        assert table.bracket(a) == LaurentPoly(dict(codes._decode(packed, c, 0)))
        assert table.classify(a) == codes._packed_reference(
            c, projection.writhe(flip)).get(packed, codes.OTHER)
        assert projection.flip == flip and len(projection.path) == c + 1


def test_resumed_star_brackets_equal_fresh_evaluations():
    d = _diagram(9, STAR_9_4)
    table = BracketTable(d)
    projection = table._projection
    rng = random.Random(94)
    flips = [rng.randrange(1 << 27) for _ in range(1000)]
    fresh = {flip: codes._evaluate(projection.plan, flip) for flip in flips}
    shuffled = flips[:]
    rng.shuffle(shuffled)
    for order in (sorted(flips, key=table.plan_order), shuffled):
        assert [projection.packed(flip) for flip in order] \
            == [fresh[flip] for flip in order]


def test_plan_order_reads_the_bits_in_the_plan_order(plan_builds):
    d = _diagram(8, OCTAGRAM)
    table = BracketTable(d)
    steps = [k for k, _, _ in table._projection.plan]
    assert sorted(steps) == list(range(16))
    for bits in random.Random(8).sample(range(1 << 16), 50):
        assert table.plan_order(bits) == int(
            "".join(str(bits >> k & 1) for k in steps), 2)
    kink = detect_crossings(walk_from_integer_vertices(
        [(0, 0), (4, 0), (4, 2), (2, 2), (2, -2), (0, -2)]))
    assert [BracketTable(kink).plan_order(b) for b in (0, 1)] == [0, 1]
    assert plan_builds == [table._projection.pd]  # none below 3 crossings


# ---------------------------------------------------------------------------
# The bracket engine against the exact 2^c state sum


def test_bracket_equals_state_sum_on_fixtures_and_kink():
    verts = [(0, 0), (4, 0), (4, 2), (2, 2), (2, -2), (0, -2)]
    kink = detect_crossings(walk_from_integer_vertices(verts))
    pds = [TREFOIL_PD, FIGURE_EIGHT_PD, CINQUEFOIL_PD, THREE_TWIST_PD]
    pds += [gauss_to_pd(extract_gauss_code(kink, CrossingAssignment.from_bits(
        1, bits))) for bits in (0, 1)]
    for pd in pds:
        assert kauffman_bracket(pd).coeffs == state_sum_bracket(pd)


def test_bracket_equals_state_sum_on_triple_closures():
    from stickknots.triple import all_labelings, assemble_pd, enumerate_closures
    n = 0
    for scheme in enumerate_closures():
        for label in all_labelings():
            for over_ad in (False, True):
                pd, _ = assemble_pd(scheme, label, over_ad)
                assert kauffman_bracket(pd).coeffs == state_sum_bracket(pd)
                n += 1
    assert n == 288


def _assert_table_and_bracket_match_state_sum(d, assignments):
    table = BracketTable(d)
    for a in assignments:
        pd = gauss_to_pd(extract_gauss_code(d, a))
        want = state_sum_bracket(pd)
        assert kauffman_bracket(pd).coeffs == want
        assert table.bracket(a).coeffs == want


def test_bracket_equals_state_sum_on_pentagram_assignments():
    d = _diagram(5, PENTAGRAM)
    _assert_table_and_bracket_match_state_sum(
        d, [CrossingAssignment.from_bits(5, bits) for bits in range(32)])


def test_bracket_equals_state_sum_on_7gon_and_small_8gon_classes():
    from stickknots.constructions import canonical_ordering_classes
    rng = random.Random(78)
    for n, max_crossings in ((7, None), (8, 10)):
        vs = regular_ngon(n)
        for ordering, _ in canonical_ordering_classes(n):
            d = diagram_from_ordering(vs, ordering)
            c = d.n_crossings
            if d.is_degenerate or max_crossings is not None and c > max_crossings:
                continue
            sample = rng.sample(range(1 << c), min(1 << c, 2))
            _assert_table_and_bracket_match_state_sum(
                d, [CrossingAssignment.from_bits(c, bits) for bits in sample])


def _flipped_pd(pd, flip):
    """The PD code with crossing k's over/under flipped for each bit k of
    ``flip``: its tuple then starts at the old incoming over-strand."""
    return tuple(tup[1:] + tup[:1] if flip >> k & 1 else tup
                 for k, tup in enumerate(pd))


@pytest.mark.parametrize("pd", [TREFOIL_PD, FIGURE_EIGHT_PD, CINQUEFOIL_PD,
                                THREE_TWIST_PD],
                         ids=["3_1", "4_1", "5_1", "5_2"])
def test_every_flip_of_a_fixture_equals_the_state_sum(pd):
    plan = codes._contraction_plan(pd)
    for flip in range(1 << len(pd)):
        packed = codes._evaluate(plan, flip)
        assert dict(codes._decode(packed, len(pd), 0)) \
            == state_sum_bracket(_flipped_pd(pd, flip))


def _kink_chain_pd(signs):
    """PD code of an unknot drawn as a chain of Reidemeister-I kinks, kink k
    of writhe sign ``signs[k]``: its Gauss code visits crossing k over,
    then under, and arc i + 1 enters visit i (``gauss_to_pd``'s labels)."""
    n = 2 * len(signs)
    pd = []
    for k, sign in enumerate(signs):
        o_in, u_in, u_out = 2 * k + 1, 2 * k + 2, (2 * k + 2) % n + 1
        pd.append((u_in, o_in, u_out, u_in) if sign > 0
                  else (u_in, u_in, u_out, o_in))
    return tuple(pd)


#: The bracket's loop value d = -A^2 - A^-2.
LOOP = LaurentPoly({2: -1, -2: -1})


def test_kink_chain_brackets_to_its_closed_form():
    # each kink of writhe sign s contributes -A^(3s) to the unknot's bracket
    rng = random.Random(30)
    for signs in ([1] * 30, [-1] * 30, [rng.choice((-1, 1)) for _ in range(30)],
                  [1, -1, -1, 1, 1]):
        pd = _kink_chain_pd(signs)
        want = LaurentPoly({3 * sum(signs): (-1) ** len(signs)})
        assert kauffman_bracket(pd) == want
        assert pd_writhe(pd) == sum(signs)
        assert jones(pd, sum(signs)) == LaurentPoly.one()
        if len(pd) <= 5:
            assert want.coeffs == state_sum_bracket(pd)


def _split_pd(*pds):
    """One PD code for the disjoint union of the given ones, arcs relabelled
    so that no two pieces share an arc."""
    out, offset = [], 0
    for pd in pds:
        out += [tuple(arc + offset for arc in tup) for tup in pd]
        offset += 2 * len(pd)
    return tuple(out)


@pytest.mark.parametrize("pieces", [
    (TREFOIL_PD, FIGURE_EIGHT_PD),
    (CINQUEFOIL_PD, TREFOIL_PD, THREE_TWIST_PD),
    (_kink_chain_pd([-1]),) * 30,
], ids=["3_1+4_1", "5_1+3_1+5_2", "thirty_kinks"])
def test_split_pd_brackets_to_the_product(pieces):
    # <K1 + K2> = d <K1> <K2>.  A state of a split code closes up to c + 1
    # loops per piece, more than c + 1 in all.  Thirty one-crossing kinks
    # close up to 2c = 60, the most any c-crossing code can, and their
    # bracket d^29 (-A^-3)^30 has coefficients up to C(29, 14) ~ 2^26.
    want = kauffman_bracket(pieces[0])
    for pd in pieces[1:]:
        want = LOOP * want * kauffman_bracket(pd)
    pd = _split_pd(*pieces)
    assert kauffman_bracket(pd) == want
    if len(pd) <= 13:
        assert want.coeffs == state_sum_bracket(pd)


# ---------------------------------------------------------------------------
# Stick counting


def test_merge_crossingless_runs_examples():
    assert merge_crossingless_runs(_diagram(8, Ordering(tuple(range(8))))) == 3
    assert merge_crossingless_runs(_diagram(7, TREFOIL_7GON)) == 7
    assert merge_crossingless_runs(_diagram(5, PENTAGRAM)) == 5


#: Walks in which the chord of every pair of consecutive crossing-free
#: edges is blocked, one of them by the named contact, so no stick merges.
BLOCKED_CHORDS = {
    # the chord (-2, 2)-(1, 0) crosses the edges from (0, 0) and to (0, 0)
    "transversal": [(0, 0), (1, 1), (-2, 2), (0, -1), (1, 0), (0, 2)],
    # the chord (0, 0)-(2, 2) passes through the vertex (1, 1)
    "vertex_on_chord": [(0, 0), (0, 2), (2, 2), (0, -1), (1, 1), (1, 0)],
    # the chord (0, 2)-(-1, 1) runs back along the edge (-2, 0)-(0, 2)
    "fold_back": [(0, 0), (-1, 1), (0, -1), (0, 0), (-2, 1), (-2, 0),
                  (0, 2)],
    # the chord (-1, 0)-(0, 0) retraces the edge (0, 0)-(-1, 0)
    "retrace": [(0, 0), (-1, 0), (-1, -2), (0, 0), (0, 1), (-1, -1)],
}


@pytest.mark.parametrize("name", sorted(BLOCKED_CHORDS))
def test_blocked_chord_keeps_every_stick(name):
    verts = BLOCKED_CHORDS[name]
    d = detect_crossings(walk_from_integer_vertices(verts))
    assert not d.is_degenerate
    assert merge_crossingless_runs(d) == len(verts)
    if not exact_walk_events(verts)[1]:
        assert exact_merged_sticks(verts) == len(verts)


def test_zero_length_chord_is_blocked():
    # back and forth twice, kept uncollapsed: every chord has length zero
    walk = walk_from_integer_vertices([(0, 0), (1, 0), (0, 0), (1, 0)])
    assert merge_crossingless_runs(Diagram(walk=walk, crossings=())) == 4


def test_merged_sticks_match_exact_oracle_on_random_walks():
    checked = 0
    for span in (1, 2, 3, 7):
        rng = random.Random(span)
        for _ in range(500):
            verts = random_integer_walk(rng, rng.randint(4, 10), span)
            if exact_walk_events(verts)[1]:
                continue
            checked += 1
            d = detect_crossings(walk_from_integer_vertices(verts))
            assert merge_crossingless_runs(d) == exact_merged_sticks(verts), \
                (span, verts)
    assert checked >= 1000


def _agreeing_chord_test(monkeypatch):
    """Route ``merge_crossingless_runs``'s chord test through both the pair
    scan and the cut-walk oracle, asserting that they agree; returns the
    checking test and the list of its verdicts."""
    scan, verdicts = codes._chord_is_clear, []

    def both(verts, i, eps):
        got = scan(verts, i, eps)
        assert got == cut_walk_chord_is_clear(verts, i, eps), (verts, i)
        verdicts.append(got)
        return got

    monkeypatch.setattr(codes, "_chord_is_clear", both)
    return both, verdicts


def _check_every_chord(check, d):
    """Every chord of a diagram's walk, then every chord its merges test."""
    verts = list(d.walk.vertices[:-1])
    for i in range(len(verts) if len(verts) > 3 else 0):
        check(verts, i, EPS_DEFAULT)
    merge_crossingless_runs(d)


def test_chord_scan_agrees_with_the_cut_walk_oracle_on_every_class(
        monkeypatch):
    from stickknots.constructions import canonical_ordering_classes
    check, verdicts = _agreeing_chord_test(monkeypatch)
    for n in range(5, 10):
        vs = regular_ngon(n)
        for ordering, _ in canonical_ordering_classes(n):
            d = diagram_from_ordering(vs, ordering)
            if not d.is_degenerate:
                _check_every_chord(check, d)
    assert verdicts.count(True) > 1000 and verdicts.count(False) > 1000


def test_chord_scan_agrees_with_the_cut_walk_oracle_on_walks_with_contacts(
        monkeypatch):
    # walks with a vertex contact, which exact_merged_sticks refuses
    check, verdicts = _agreeing_chord_test(monkeypatch)
    walks = 0
    for span in (1, 2, 3):
        rng = random.Random(40 + span)
        for _ in range(300):
            verts = random_integer_walk(rng, rng.randint(5, 10), span)
            if not exact_vertex_contacts(verts)[0]:
                continue
            walks += 1
            _check_every_chord(
                check, detect_crossings(walk_from_integer_vertices(verts)))
    assert walks >= 300
    assert verdicts.count(True) > 500 and verdicts.count(False) > 500


def test_merged_sticks_never_beat_stick_number():
    from stickknots.codes import make_knot_class
    trefoil = make_knot_class("trefoil", "right")
    assert stick_filter(6, trefoil)
    assert not stick_filter(5, trefoil)
    assert stick_filter(3, UNKNOT)


def test_unrecognized_jones_polynomials_share_one_class():
    # the granny and square knots are outside the table: both are the one
    # class "other", which carries no invariant of its own
    j = jones(TREFOIL_PD, pd_writhe(TREFOIL_PD))
    granny, square = classify_jones(j * j), classify_jones(j * j.mirror())
    assert granny == square == make_knot_class("other")
    assert (granny.label, granny.stick_number) == ("other", None)


def test_mirror_of_each_reference_class_is_its_mirrored_jones_class():
    # the census gives a walked cell's total flip the mirror of its label,
    # which holds because the reference table is closed under mirroring
    reference = codes._reference_jones()
    for key, k in reference.items():
        assert reference[LaurentPoly(dict(key)).mirror().key()] == k.mirror()
        assert k.mirror().mirror() == k
    assert {k.mirror().label for k in reference.values()} == {
        k.label for k in reference.values()}
    assert codes.OTHER.mirror() == codes.OTHER


def test_assignment_round_trips_through_its_bits():
    # an assignment holds its crossing count and bits; the constructor
    # from one bool per crossing, from_bits and over_a agree, and only
    # from_bits checks the bits' range (70 crossings overflow an int64)
    rng = random.Random(22)
    for c in (0, 1, 16, 70):
        for bits in (0, (1 << c) - 1, rng.randrange(1 << c)):
            a = CrossingAssignment.from_bits(c, bits)
            over = tuple(bool(bits >> k & 1) for k in range(c))
            assert (a.n_crossings, a.bits, len(a), a.over_a) == (c, bits, c, over)
            assert CrossingAssignment(over) == CrossingAssignment(list(over)) == a
            assert hash(CrossingAssignment(over)) == hash(a)
            assert a.flipped().over_a == tuple(not o for o in over)
            assert a.flipped().flipped() == a
            assert a != CrossingAssignment.from_bits(c + 1, bits)
            assert repr(a) == f"CrossingAssignment(n_crossings={c}, bits={bits})"
            with pytest.raises(AttributeError):
                a.bits = 0
    for c, bits in ((16, -1), (16, 1 << 16), (0, 1)):
        with pytest.raises(InvalidParameterError, match="out of range"):
            CrossingAssignment.from_bits(c, bits)


def test_alternating_assignment_existence():
    assert alternating_assignment(_diagram(5, PENTAGRAM)) is not None
    assert alternating_assignment(_diagram(8, OCTAGRAM)) is not None
    empty = alternating_assignment(_diagram(6, Ordering(tuple(range(6)))))
    assert empty is not None and len(empty) == 0
