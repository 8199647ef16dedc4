"""Planar geometry: walks, intersection, degeneracy resolution, predicates."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from stickknots import geometry
from stickknots.geometry import (
    EPS_DEFAULT,
    DegenerateContact,
    Diagram,
    InvalidParameterError,
    NonGenericDirectionError,
    Ordering,
    Transversal,
    Vec2,
    VectorSet,
    Walk,
    build_walk,
    detect_crossings,
    diagram_from_ordering,
    local_maxima_count,
    polar_sort,
    regular_ngon,
    segment_intersection,
    sign_components_ok,
    unique_sign_component,
)

from conftest import (
    exact_vertex_contacts,
    exact_walk_events,
    random_integer_walk,
    walk_from_integer_vertices,
)


# ---------------------------------------------------------------------------
# Vectors, orderings, walks


def test_vec2_arithmetic():
    a, b = Vec2(3.0, 4.0), Vec2(-1.0, 2.0)
    assert (a + b).as_tuple() == (2.0, 6.0)
    assert (a - b).as_tuple() == (4.0, 2.0)
    assert a.dot(b) == 5.0
    assert a.cross(b) == 10.0
    assert a.norm() == 5.0
    assert a.normalized().norm() == pytest.approx(1.0)
    assert Vec2(1.0, -1.0).angle() == pytest.approx(7.0 * math.pi / 4.0)


def test_vec2_rejects_non_finite():
    with pytest.raises(InvalidParameterError):
        Vec2(float("nan"), 0.0)


def test_regular_ngon_zero_sum_and_angles():
    for n in range(3, 12):
        vs = regular_ngon(n)
        assert vs.is_zero_sum()
        assert vs[1].angle() == pytest.approx(2.0 * math.pi / n)
    with pytest.raises(InvalidParameterError):
        regular_ngon(2)


def test_ordering_validation_and_symmetries():
    o = Ordering((0, 2, 4, 1, 3))
    assert o.rotated(2).perm == (4, 1, 3, 0, 2)
    assert o.reversed_().perm == (3, 1, 4, 2, 0)
    with pytest.raises(InvalidParameterError):
        Ordering((0, 0, 1))


def test_build_walk_closes_and_rejects_open():
    vs = regular_ngon(7)
    w = build_walk(vs, Ordering(tuple(range(7))))
    assert w.vertices[0] == w.vertices[-1]
    assert w.n_edges == 7
    open_set = VectorSet.from_pairs([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)])
    with pytest.raises(InvalidParameterError):
        build_walk(open_set, Ordering((0, 1, 2)))


# ---------------------------------------------------------------------------
# Segment intersection


def test_transversal_intersection():
    res = segment_intersection(Vec2(0, 0), Vec2(2, 2), Vec2(0, 2), Vec2(2, 0))
    assert isinstance(res, Transversal)
    assert res.t == pytest.approx(0.5)
    assert res.s == pytest.approx(0.5)
    assert res.point.as_tuple() == pytest.approx((1.0, 1.0))


def test_miss_and_endpoint_contact():
    assert segment_intersection(Vec2(0, 0), Vec2(1, 0),
                                Vec2(0, 1), Vec2(1, 1)) is None
    res = segment_intersection(Vec2(0, 0), Vec2(2, 0), Vec2(1, 0), Vec2(1, 2))
    assert isinstance(res, DegenerateContact)
    assert res.kind == "vertex_contact"


def test_collinear_overlap_and_touch():
    res = segment_intersection(Vec2(0, 0), Vec2(2, 0), Vec2(1, 0), Vec2(3, 0))
    assert isinstance(res, DegenerateContact)
    assert res.kind == "collinear_overlap"
    touch = segment_intersection(Vec2(0, 0), Vec2(1, 0), Vec2(1, 0), Vec2(2, 0))
    assert isinstance(touch, DegenerateContact)
    assert touch.kind == "vertex_contact"
    assert segment_intersection(Vec2(0, 0), Vec2(1, 0),
                                Vec2(2, 0), Vec2(3, 0)) is None


def test_degenerate_segment_rejected():
    with pytest.raises(InvalidParameterError):
        segment_intersection(Vec2(0, 0), Vec2(0, 0), Vec2(0, 1), Vec2(1, 1))


_coords = st.integers(min_value=-50, max_value=50)
_points = st.tuples(_coords, _coords)


@settings(max_examples=300, deadline=None)
@given(_points, _points, _points, _points)
def test_intersection_swap_and_reversal_symmetry(p0, p1, q0, q1):
    if p0 == p1 or q0 == q1:
        return
    a0, a1 = Vec2(*map(float, p0)), Vec2(*map(float, p1))
    b0, b1 = Vec2(*map(float, q0)), Vec2(*map(float, q1))
    res = segment_intersection(a0, a1, b0, b1)
    swapped = segment_intersection(b0, b1, a0, a1)
    assert type(res) is type(swapped)
    if isinstance(res, Transversal):
        assert swapped.t == pytest.approx(res.s)
        assert swapped.s == pytest.approx(res.t)
        rev = segment_intersection(a1, a0, b0, b1)
        assert isinstance(rev, Transversal)
        assert rev.t == pytest.approx(1.0 - res.t)


# ---------------------------------------------------------------------------
# Crossing detection and degeneracy resolution


def test_convex_polygon_has_no_crossings():
    for n in (3, 5, 8):
        d = diagram_from_ordering(regular_ngon(n), Ordering(tuple(range(n))))
        assert d.n_crossings == 0
        assert not d.degeneracies


def test_seven_gon_trefoil_ordering_has_three_crossings():
    d = diagram_from_ordering(regular_ngon(7), Ordering((0, 1, 3, 5, 6, 2, 4)))
    assert d.n_crossings == 3
    assert not d.is_degenerate
    for c in d.crossings:
        assert c.edge_a < c.edge_b
        assert 0.0 < c.t_a <= 1.0 and 0.0 < c.t_b <= 1.0
        assert c.sign in (-1, 1)


def test_pentagram_has_five_crossings():
    d = diagram_from_ordering(regular_ngon(5), Ordering((0, 3, 1, 4, 2)))
    assert d.n_crossings == 5
    assert not d.is_degenerate


def test_retrace_pair_collapses():
    # out-and-back edge pair contributes nothing; hexagon ordering with two
    # opposite vectors adjacent collapses to a 4-edge convex walk
    d = diagram_from_ordering(regular_ngon(6), Ordering((0, 2, 4, 1, 3, 5)))
    kinds = {g.kind for g in d.degeneracies}
    assert "retrace_pair" in kinds
    assert not d.is_degenerate
    assert d.n_crossings == 0


def test_vertex_coincidence_resolved_by_interleaving():
    d = diagram_from_ordering(regular_ngon(6), Ordering((0, 2, 4, 3, 1, 5)))
    assert any(g.kind == "vertex_coincidence" for g in d.degeneracies)
    assert not d.is_degenerate


_VERTEX_ON_EDGE_WALK = [(0, 0), (4, 0), (4, 2), (2, 0), (2, -2), (0, -2)]


def test_vertex_on_edge_interleaved_becomes_corner_crossing():
    # vertex (2, 0) lies on the interior of the first edge; the four rays
    # leaving that point interleave, so the strands genuinely cross there
    d = detect_crossings(walk_from_integer_vertices(_VERTEX_ON_EDGE_WALK))
    assert not d.is_degenerate
    assert any(g.kind == "vertex_on_edge" and g.resolution == "crossing"
               for g in d.degeneracies)
    assert d.n_crossings == 1
    c = d.crossings[0]
    # the corner is represented on the incoming edge with parameter 1.0
    assert (c.edge_a, c.edge_b) == (0, 2)
    assert c.t_b == pytest.approx(1.0)
    assert c.t_a == pytest.approx(0.5)


def test_vertex_on_edge_non_interleaved_is_no_crossing():
    # vertex (2, 0) touches the first edge but both its rays leave upward:
    # the strands only touch, they do not cross
    verts = [(0, 0), (4, 0), (4, 3), (2, 0), (0, 3)]
    d = detect_crossings(walk_from_integer_vertices(verts))
    assert any(g.kind == "vertex_on_edge" and g.resolution == "no_crossing"
               for g in d.degeneracies)
    assert not d.is_degenerate
    assert d.n_crossings == 0


def test_collinear_overlap_flags_diagram():
    verts = [(0, 0), (4, 0), (4, 2), (3, 0), (1, 0), (1, 2), (0, 2)]
    d = detect_crossings(walk_from_integer_vertices(verts))
    assert d.is_degenerate
    assert any(g.kind == "collinear_overlap" for g in d.degeneracies)


def test_triple_point_leaves_its_contacts_unresolved():
    # vertex 1 sits where edges 3 and 5 cross: it touches two edges at once
    verts = [(0, 0), (-1, -1), (-1, -2), (0, -1), (-2, -1), (-3, -3)]
    d = detect_crossings(walk_from_integer_vertices(verts))
    assert d.is_degenerate
    assert [(g.kind, g.involved, g.resolution) for g in d.degeneracies] == [
        ("vertex_on_edge", (1, 3), "unresolved"),
        ("vertex_on_edge", (1, 5), "unresolved"),
    ]
    assert [(c.edge_a, c.edge_b) for c in d.crossings] == [(3, 5)]


def test_flat_triangle_vertex_on_opposite_edge_is_unresolved():
    # a 3-edge walk has no non-adjacent edge pair, yet vertex 2 lies inside
    # edge 0
    d = detect_crossings(walk_from_integer_vertices([(0, 0), (2, 0), (1, 0)]))
    assert d.is_degenerate
    assert [(g.kind, g.involved, g.resolution) for g in d.degeneracies] == [
        ("vertex_on_edge", (2, 0), "unresolved"),
    ]


@pytest.mark.xfail(
    strict=True,
    reason="detect_crossings does not flag three edges crossing at one "
    "point: the three crossings get equal parameters on each edge, and the "
    "Gauss code breaks those ties by crossing index, which need not match "
    "any planar perturbation")
def test_three_edges_through_one_point_are_flagged():
    from stickknots.codes import (CrossingAssignment, determinant,
                                  extract_gauss_code, gauss_to_pd)
    # edges 1, 4 and 7 all pass through (1.266044443, 0.223237794)
    d = diagram_from_ordering(regular_ngon(9),
                              Ordering((0, 1, 3, 6, 8, 7, 2, 4, 5)))

    def odd_determinant(bits):
        a = CrossingAssignment.from_bits(d.n_crossings, bits)
        try:
            return determinant(gauss_to_pd(extract_gauss_code(d, a))) % 2 == 1
        except ArithmeticError:
            return False

    assert d.is_degenerate or all(
        odd_determinant(bits) for bits in range(1 << d.n_crossings))


def test_crossing_list_is_sorted_and_deduplicated():
    d = diagram_from_ordering(regular_ngon(8), Ordering((0, 3, 6, 1, 4, 7, 2, 5)))
    keys = [(c.edge_a, c.t_a, c.edge_b, c.t_b) for c in d.crossings]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys) == 16


# ---------------------------------------------------------------------------
# The scan's bounding-box reject


def _near_parallel_walks(rng: random.Random, eps: float, count: int):
    """Quadrilaterals p0 p1 q0 q1 whose edges 0 and 2 meet at a sine just
    above eps, placed far from the origin, along one line or offset across
    it by up to 3*eps: near-parallel pairs for segment_intersection."""
    for _ in range(count):
        ox, oy = rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)
        a = rng.uniform(0.0, 2.0 * math.pi)
        b = a + rng.choice((1, -1)) * eps * rng.uniform(1.0, 1.5)
        len1, len2 = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        along = rng.uniform(-1.0, 3.0)
        across = rng.choice((0.0, eps)) * rng.uniform(-3.0, 3.0)
        p0 = Vec2(ox, oy)
        p1 = Vec2(ox + len1 * math.cos(a), oy + len1 * math.sin(a))
        q0 = Vec2(ox + along * math.cos(a) - across * math.sin(a),
                  oy + along * math.sin(a) + across * math.cos(a))
        q1 = Vec2(q0.x + len2 * math.cos(b), q0.y + len2 * math.sin(b))
        yield Walk((p0, p1, q0, q1, p0))


def _corner_gap_walks(rng: random.Random, eps: float, count: int):
    """Quadrilaterals p0 p1 q0 q1 whose edges 0 and 2 stop 0.8*eps short of
    the point where their lines meet: accepted pairs with boxes apart by up
    to 1.6*eps."""
    for _ in range(count):
        x, y = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        a = rng.uniform(0.0, 2.0 * math.pi)
        b = a + rng.uniform(0.5, math.pi - 0.5)
        ends = []
        for ang in (a, b):
            far = rng.uniform(0.5, 3.0)
            ends += [Vec2(x - far * math.cos(ang), y - far * math.sin(ang)),
                     Vec2(x - 0.8 * eps * math.cos(ang),
                          y - 0.8 * eps * math.sin(ang))]
        yield Walk(tuple(ends) + (ends[0],))


def _accepted_pairs_are_scanned(monkeypatch, walk: Walk, eps: float) -> int:
    """Run detect_crossings with a spy on segment_intersection, and check
    that every non-adjacent pair of the collapsed walk that
    segment_intersection accepts was passed to it.  Returns how many
    pairs it accepts."""
    scanned = set()

    def spy(p0, p1, q0, q1, eps_):
        scanned.add((p0, p1, q0, q1))
        return segment_intersection(p0, p1, q0, q1, eps_)

    monkeypatch.setattr(geometry, "segment_intersection", spy)
    collapsed = detect_crossings(walk, eps).walk
    monkeypatch.undo()
    m = collapsed.n_edges
    accepted = 0
    for i in range(m):
        for j in range(i + 2, m - (i == 0)):
            args = collapsed.edge(i) + collapsed.edge(j)
            if segment_intersection(*args, eps) is not None:
                accepted += 1
                assert args in scanned, (walk, eps, i, j)
    return accepted


@pytest.fixture(scope="module")
def small_class_walks():
    from stickknots.constructions import canonical_ordering_classes
    return [build_walk(regular_ngon(n), o)
            for n in range(5, 10)
            for o, _ in canonical_ordering_classes(n)]


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12, 1e-14])
def test_box_reject_keeps_every_pair_segment_intersection_accepts(
        monkeypatch, small_class_walks, eps):
    from stickknots.constructions import trefoil_selection
    rng = random.Random(20261018)
    walks = [build_walk(regular_ngon(n), trefoil_selection(n), eps)
             for n in range(7, 101)]
    walks += small_class_walks
    walks += [walk_from_integer_vertices(random_integer_walk(
        rng, rng.randint(4, 12), rng.choice((1, 2, 3, 7))))
        for _ in range(300)]
    accepted = sum(_accepted_pairs_are_scanned(monkeypatch, w, eps)
                   for w in walks)
    assert accepted > 5000
    corner_accepted = 0
    for w in _corner_gap_walks(rng, eps, 300):
        _accepted_pairs_are_scanned(monkeypatch, w, eps)
        corner_accepted += segment_intersection(*w.edge(0), *w.edge(2),
                                                eps) is not None
    assert corner_accepted == 300
    # many built pairs are accepted on the transversal branch, where
    # |den| > eps*len1*len2 only just
    near_transversal = 0
    for w in _near_parallel_walks(rng, eps, 600):
        _accepted_pairs_are_scanned(monkeypatch, w, eps)
        (p0, p1), (q0, q1) = w.edge(0), w.edge(2)
        d1, d2 = p1 - p0, q1 - q0
        near_transversal += (
            abs(d1.cross(d2)) > eps * d1.norm() * d2.norm()
            and segment_intersection(p0, p1, q0, q1, eps) is not None)
    assert near_transversal > 50


def test_box_reject_keeps_pairs_accepted_by_rounding(monkeypatch):
    # below the unit roundoff, rounding alone lets segment_intersection
    # accept edges of one line that lie 1.1 and 1.8 apart; there the pad
    # spans the whole walk
    eps = 1e-16
    for ends in (
            [(0.43441819726749636, 0.5907407056838092),
             (1.546558875375409, 2.1030778341411462),
             (2.4124694342031416, 3.2805805672183674),
             (3.229901150540286, 4.392159667713526)],
            [(0.6546999291368311, 0.6270621152421273),
             (-1.2655945658218912, -1.2121681554624921),
             (-3.1068244145572788, -2.9756714524876733),
             (-3.6662245669943756, -3.511456821086151)]):
        p0, p1, q0, q1 = (Vec2(x, y) for x, y in ends)
        assert segment_intersection(p0, p1, q0, q1, eps) is not None
        assert _accepted_pairs_are_scanned(
            monkeypatch, Walk((p0, p1, q0, q1, p0)), eps) >= 1


@pytest.mark.parametrize("verts, scale, message", [
    # edge 1 has length 0, and every other edge's box is far from it
    ([(0, 0), (2, 0), (2, 0), (2, 2), (0, 2), (-5, 7), (-9, 9)], 1.0,
     "shorter than tolerance"),
    # the cross products of far-apart edges overflow to nan
    ([(0, 0), (3, 0), (3, 2), (6, 3), (6, 1)], 1e200, "non-finite"),
], ids=["zero_length_edge", "overflowing_cross_products"])
def test_scan_still_raises_where_segment_intersection_does(verts, scale,
                                                           message):
    pts = tuple(Vec2(x * scale, y * scale) for x, y in verts)
    with pytest.raises(InvalidParameterError, match=message):
        detect_crossings(Walk(pts + (pts[0],)))


@pytest.mark.parametrize("verts, message", [
    ([(0, 0), (3, 0), (3, 2), (6, 3), (6, 1)], "cross products overflowed"),
    # a triangle's vertex-on-edge test divides one overflowed dot product
    # by another
    ([(0, 0), (2, 0), (1, 1)], "dot products overflowed"),
], ids=["crossing_test", "triangle"])
def test_overflow_is_named_where_it_happens(verts, message):
    def walk(scale):
        pts = tuple(Vec2(x * scale, y * scale) for x, y in verts)
        return Walk(pts + (pts[0],))

    detect_crossings(walk(1e150))  # the same walk scans at 1e150
    with pytest.raises(InvalidParameterError, match=message):
        detect_crossings(walk(1e200))


def test_scan_tests_few_pairs_of_the_selection_walk(monkeypatch):
    from stickknots.constructions import trefoil_selection
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return segment_intersection(*args)

    monkeypatch.setattr(geometry, "segment_intersection", counting)
    walk = build_walk(regular_ngon(100), trefoil_selection(100))
    assert detect_crossings(walk).n_crossings == 3
    # 4,850 non-adjacent pairs, nearly all with their boxes apart
    assert calls <= 100


# ---------------------------------------------------------------------------
# Oracle comparisons


def test_exact_rational_oracle_on_random_walks():
    rng = random.Random(20240817)
    checked_clean = checked_contacts = 0
    for _ in range(1000):
        n = rng.randint(5, 9)
        verts = random_integer_walk(rng, n)
        transversals, degenerate = exact_walk_events(verts)
        contacts, overlap = exact_vertex_contacts(verts)
        d = detect_crossings(walk_from_integer_vertices(verts))
        retrace = any(verts[i] == verts[(i + 2) % n] for i in range(n))
        if not retrace and not overlap:
            # the records name exactly the exact vertex contacts, once each
            checked_contacts += 1
            assert sorted((g.kind, g.involved) for g in d.degeneracies) \
                == sorted(contacts), verts
        if degenerate:
            # every exact degeneracy must surface as a degeneracy record
            assert d.degeneracies, verts
            continue
        checked_clean += 1
        assert not d.degeneracies, verts
        got = {(c.edge_a, c.edge_b): (c.t_a, c.t_b) for c in d.crossings}
        want = {(i, j): (t, s) for i, j, t, s in transversals}
        assert set(got) == set(want), verts
        for key, (t, s) in want.items():
            assert got[key][0] == pytest.approx(float(t), abs=1e-9)
            assert got[key][1] == pytest.approx(float(s), abs=1e-9)
    assert checked_clean > 500  # the oracle exercised plenty of clean walks
    assert checked_contacts > 900


@pytest.mark.parametrize("verts", [
    _VERTEX_ON_EDGE_WALK,
    [(0, 0), (4, 0), (4, 3), (2, 0), (0, 3)],
])
def test_perturbation_oracle_preserves_crossing_parity(verts):
    base = detect_crossings(walk_from_integer_vertices(verts))
    assert not base.is_degenerate
    resolved = base.n_crossings
    # nudge the degenerate vertex slightly in 8 directions: the resolved
    # crossing count must match every nearby generic diagram modulo 2
    target = 3  # index of the vertex that touches the first edge
    delta = 1e-6
    for k in range(8):
        ang = 2.0 * math.pi * k / 8.0 + 0.1
        moved = list(verts)
        moved_pt = (verts[target][0] + delta * math.cos(ang),
                    verts[target][1] + delta * math.sin(ang))
        pts = [Vec2(float(x), float(y)) for x, y in moved]
        pts[target] = Vec2(*moved_pt)
        d = detect_crossings(Walk(tuple(pts) + (pts[0],)))
        assert not d.is_degenerate
        assert d.n_crossings % 2 == resolved % 2


def _assert_reflection_negates_signs(walk: Walk) -> Diagram:
    """The mirror image y -> -y of a walk has the same crossings, on the same
    edges at the same parameters, with every sign negated, and the same
    degeneracies.  Returns the walk's diagram."""
    d = detect_crossings(walk)
    r = detect_crossings(Walk(tuple(Vec2(v.x, -v.y) for v in walk.vertices)))
    assert [(c.edge_a, c.edge_b, c.t_a, c.t_b, -c.sign) for c in d.crossings] \
        == [(c.edge_a, c.edge_b, c.t_a, c.t_b, c.sign) for c in r.crossings]
    assert [(g.kind, g.involved, g.resolution) for g in d.degeneracies] \
        == [(g.kind, g.involved, g.resolution) for g in r.degeneracies]
    return d


def test_reflection_negates_every_crossing_sign():
    # one sign rule for transversals, coincident corners and corners on
    # edges: cross(tangent on edge_a, tangent on edge_b) flips with y
    from stickknots.constructions import canonical_ordering_classes
    walks = [build_walk(regular_ngon(n), ordering)
             for n in range(5, 10)
             for ordering, _orbit in canonical_ordering_classes(n)]
    rng = random.Random(20261018)
    walks += [walk_from_integer_vertices(
        random_integer_walk(rng, rng.randint(4, 9))) for _ in range(500)]
    kinds = Counter()
    for walk in walks:
        d = _assert_reflection_negates_signs(walk)
        kinds.update(g.kind for g in d.degeneracies
                     if g.resolution == "crossing")
    # both contact kinds became crossings, so all three kinds were checked
    assert kinds["vertex_coincidence"] > 0 and kinds["vertex_on_edge"] > 0


# ---------------------------------------------------------------------------
# Hypothesis properties on diagrams


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=5, max_value=8),
       st.randoms(use_true_random=False),
       st.floats(min_value=0.01, max_value=0.6))
def test_crossing_count_invariant_under_rotation_and_reversal(n, rnd, phase):
    perm = list(range(n))
    rnd.shuffle(perm)
    vs = regular_ngon(n, phase=phase)
    base = diagram_from_ordering(vs, Ordering(tuple(perm)))
    if base.is_degenerate:
        return
    for variant in (Ordering(tuple(perm)).rotated(rnd.randrange(n)),
                    Ordering(tuple(perm)).reversed_()):
        d = diagram_from_ordering(vs, variant)
        if d.is_degenerate:
            continue
        assert d.n_crossings == base.n_crossings


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=4, max_value=9),
       st.floats(min_value=0.01, max_value=0.5))
def test_polar_sort_walk_is_convex_unknot(n, phase):
    vs = regular_ngon(n, phase=phase)
    ordering = polar_sort(vs)
    d = diagram_from_ordering(vs, ordering)
    assert d.n_crossings == 0
    assert not d.degeneracies
    # bridge index 1: exactly one local maximum along a generic direction
    assert local_maxima_count(d.walk, Vec2(0.613, 0.79)) == 1


def test_diagram_json_round_trip():
    d = diagram_from_ordering(regular_ngon(7), Ordering((0, 1, 3, 5, 6, 2, 4)))
    obj = d.to_json()
    assert set(obj) == {"vectors", "ordering", "vertices", "crossings",
                       "degeneracies"}
    back = Diagram.from_json(obj)
    assert back.to_json() == obj
    assert back.n_crossings == d.n_crossings


def test_diagram_from_json_rejects_malformed_input():
    obj = diagram_from_ordering(
        regular_ngon(7), Ordering((0, 1, 3, 5, 6, 2, 4))).to_json()
    m = len(obj["vertices"]) - 1

    def with_crossing(**fields):
        return {**obj, "crossings": [{**obj["crossings"][0], **fields}]}

    bad = [
        {k: v for k, v in obj.items() if k != "crossings"},
        {**obj, "crossings": [{"edge_a": 0}]},
        {**obj, "vertices": obj["vertices"][:-1]},
        with_crossing(edge_b=m),
        with_crossing(edge_a=-1),
        with_crossing(t_a=0.0),
        with_crossing(t_b=1.5),
        [],
    ]
    for b in bad:
        with pytest.raises(InvalidParameterError):
            Diagram.from_json(b)


# ---------------------------------------------------------------------------
# Component predicates


def test_sign_components_predicates():
    assert sign_components_ok(regular_ngon(7))
    lopsided = VectorSet.from_pairs(
        [(0.5, 3.0), (1.0, -1.0), (-1.0, -1.0), (-0.5, -1.0)])
    assert unique_sign_component(lopsided) == ("y", 0)
    assert sign_components_ok(lopsided)


def test_unique_sign_component_walks_never_knot():
    # one vector alone carries all positive y: reorderings can pick up
    # removable twist crossings but never the 3 needed for a knot
    import itertools
    vs = VectorSet.from_pairs(
        [(0.5, 3.0), (1.0, -1.0), (-1.0, -1.0), (-0.5, -1.0)])
    assert unique_sign_component(vs) is not None
    for perm in itertools.permutations(range(4)):
        d = diagram_from_ordering(vs, Ordering(perm))
        if not d.is_degenerate:
            assert d.n_crossings < 3


def test_local_maxima_nongeneric_direction_raises():
    w = build_walk(regular_ngon(4, phase=0.3), Ordering((0, 1, 2, 3)))
    with pytest.raises(NonGenericDirectionError):
        # a square has opposite vertices at equal height along a diagonal
        local_maxima_count(w, Vec2(math.cos(0.3 + math.pi / 4),
                                   math.sin(0.3 + math.pi / 4)))
