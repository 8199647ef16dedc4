"""Triple-crossing resolution and exhaustive 4-crossing classification."""

from collections import Counter

import pytest

from stickknots import codes, triple
from stickknots.geometry import InvalidParameterError
from stickknots.codes import classify_jones, jones, pd_writhe
from stickknots.triple import (
    WORKED_SCHEME,
    ClosureScheme,
    TripleLabeling,
    all_labelings,
    assemble_pd,
    classify_closure,
    classify_triple_plus_one,
    enumerate_closures,
    resolve_triple,
    triple_report,
)


def test_six_distinct_labelings():
    labs = all_labelings()
    assert len(labs) == len(set(labs)) == 6
    with pytest.raises(InvalidParameterError):
        TripleLabeling(("T", "T", "B"))


def test_top_over_twice_bottom_under_twice():
    for lab in all_labelings():
        top = lab.heights.index("T") + 1
        bottom = lab.heights.index("B") + 1
        over = Counter(f.over for f in resolve_triple(lab))
        under = Counter(
            f.strands[0] if f.over == f.strands[1] else f.strands[1]
            for f in resolve_triple(lab))
        assert over[top] == 2
        assert under[bottom] == 2


def test_resolved_ports_follow_the_rotation_system():
    # counterclockwise (strand, piece) ports at each pairwise crossing; the
    # labeling picks only which strand is over
    rotation = {(1, 2): ((1, 1), (2, 1), (1, 2), (2, 2)),
                (1, 3): ((1, 0), (3, 1), (1, 1), (3, 2)),
                (2, 3): ((2, 0), (3, 0), (2, 1), (3, 1))}
    for lab in all_labelings():
        assert {f.strands: f.ports for f in resolve_triple(lab)} == rotation


def test_resolved_fragments_distinct_across_labelings():
    fragments = {resolve_triple(lab) for lab in all_labelings()}
    assert len(fragments) == 6


def test_closure_enumeration_and_planarity_witness():
    schemes = enumerate_closures()
    assert len(schemes) == 24
    for s in schemes:
        assert s.faces == 6  # V - E + F = 4 - 8 + 6 = 2: planar
        a, b = s.internal_pair
        assert (a - 1) % 3 != (b - 1) % 3 or abs(a - b) != 3
        matched_trad = {t for _, t in s.matching}
        assert matched_trad == {"a", "b", "c", "d"}
    # the 24 schemes are one orbit of the 6 x 4 rotations of the two disks
    def rotated(s, r6, r4):
        def end(e):
            return (e - 1 + r6) % 6 + 1

        def trad(t):
            ring = triple.TRAD_ENDS  # the ordinary ends in cyclic order
            return ring[(ring.index(t) + r4) % 4]
        return (tuple(sorted(map(end, s.internal_pair))),
                tuple(sorted((end(e), trad(t)) for e, t in s.matching)))

    keys = {rotated(s, 0, 0) for s in schemes}
    assert len(keys) == 24
    for s in schemes:
        assert {rotated(s, r6, r4)
                for r6 in range(6) for r4 in range(4)} == keys


def test_worked_scheme_is_enumerated():
    s = WORKED_SCHEME()
    assert s.internal_pair == (5, 6)
    assert dict(s.matching) == {1: "a", 2: "c", 3: "d", 4: "b"}
    assert s.arc_partner(5) == 6
    assert s.arc_partner(2) == "c"


@pytest.mark.parametrize("matching", [
    ((1, "a"), (2, "c"), (3, "d")),              # skips end 4 and end b
    ((1, "a"), (2, "c"), (3, "d"), (3, "b")),    # repeats end 3
], ids=["skipped_end", "repeated_end"])
def test_assemble_pd_rejects_arcs_that_miss_an_end(matching):
    scheme = ClosureScheme(internal_pair=(5, 6), matching=matching, faces=6)
    with pytest.raises(InvalidParameterError, match="exactly once"):
        assemble_pd(scheme, all_labelings()[0], True)


# No candidate is planar with more than one curve, so both cases trace 4
# faces; the second also walks only 5 of its 8 edges.
@pytest.mark.parametrize("matching", [
    ((3, "a"), (4, "b"), (5, "d"), (6, "c")),
    ((3, "a"), (4, "b"), (5, "c"), (6, "d")),
], ids=["one_curve", "two_curves"])
def test_assemble_pd_rejects_a_candidate_the_enumeration_drops(matching):
    scheme = ClosureScheme(internal_pair=(1, 2), matching=matching, faces=6)
    assert scheme not in enumerate_closures()
    with pytest.raises(InvalidParameterError, match="planar knot"):
        assemble_pd(scheme, all_labelings()[0], True)


def test_no_ordinary_end_pairs_with_another():
    # pairing two ordinary-crossing ends would make a link or a removable
    # kink; the enumeration never joins ends from {a, b, c, d}
    for s in enumerate_closures():
        assert all(isinstance(e, int) for e in s.internal_pair)


def test_assembled_diagrams_have_four_crossings_and_close_up():
    scheme = WORKED_SCHEME()
    for lab in all_labelings():
        for over_ad in (False, True):
            pd, w = assemble_pd(scheme, lab, over_ad)
            assert len(pd) == 4
            arcs = sorted(x for t in pd for x in t)
            assert arcs == sorted(list(range(1, 9)) * 2)
            assert pd_writhe(pd) == w


def test_classification_set_is_unknot_and_trefoil():
    kinds = {k.kind for k in classify_triple_plus_one()}
    assert kinds == {"unknot", "trefoil"}


def test_both_outcomes_occur_on_the_worked_scheme():
    scheme = WORKED_SCHEME()
    kinds = {classify_closure(scheme, lab, over_ad).kind
             for lab in all_labelings() for over_ad in (False, True)}
    assert kinds == {"unknot", "trefoil"}


def test_mirror_invariance_of_the_classification_set():
    # flipping every crossing mirrors each diagram; the set of underlying
    # knot types is unchanged even though trefoil chirality flips
    scheme = WORKED_SCHEME()
    for lab in all_labelings():
        mirror = TripleLabeling(tuple(
            {"T": "B", "M": "M", "B": "T"}[h] for h in lab.heights))
        for over_ad in (False, True):
            k = classify_closure(scheme, lab, over_ad)
            km = classify_closure(scheme, mirror, not over_ad)
            assert k.kind == km.kind
            if k.kind == "trefoil":
                assert k.chirality != km.chirality


def test_report_shape():
    rep = triple_report()
    assert rep["schemes"] == 24
    assert rep["cases"] == 24 * 6 * 2
    assert rep["kinds"] == ["trefoil", "unknot"]
    assert len(rep["rows"]) == rep["cases"]
    assert Counter(row["class"] for row in rep["rows"]) == {
        "unknot": 240, "trefoil_right": 24, "trefoil_left": 24}


def test_triple_report_builds_one_plan_per_scheme(plan_builds):
    rep = triple_report()
    assert rep["schemes"] == 24 and rep["cases"] == 288
    assert len(plan_builds) == 24


def test_per_scheme_plan_agrees_with_assemble_pd_on_every_case():
    # each case is labelled as a flip of its scheme's projection; the
    # per-case PD code from assemble_pd, with a plan of its own, is the
    # oracle for the class and the writhe
    rows = triple_report()["rows"]
    cases = [(scheme, lab, over_ad) for scheme in enumerate_closures()
             for lab in all_labelings() for over_ad in (False, True)]
    assert len(rows) == len(cases) == 288
    for row, (scheme, lab, over_ad) in zip(rows, cases):
        pd, w = assemble_pd(scheme, lab, over_ad)
        k = classify_jones(jones(pd, w))
        assert row == {
            "internal_pair": list(scheme.internal_pair),
            "matching": [[e, t] for e, t in scheme.matching],
            "labeling": list(lab.heights),
            "ordinary_over_ad": over_ad,
            "class": k.label,
        }
        assert classify_closure(scheme, lab, over_ad) == k
        projection = codes._Projection(triple._scheme_code(scheme, 0))
        assert projection.writhe(triple._over_bits(lab, over_ad)) == w
