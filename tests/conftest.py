"""Shared test helpers: exact-arithmetic oracles, generators, the 8-gon
census fixture and the environment of a subprocess that imports the
package from ``src/``."""

from __future__ import annotations

import gc
import math
import os
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from stickknots import codes
from stickknots.codes import CrossingAssignment
from stickknots.constructions import search_ngon
from stickknots.geometry import (
    EPS_DEFAULT,
    Degeneracy,
    DegenerateContact,
    Diagram,
    InvalidParameterError,
    Ordering,
    Transversal,
    Vec2,
    VectorSet,
    Walk,
    detect_crossings,
    diagram_from_ordering,
)
from stickknots.heights import (
    HeightSystem,
    constraints_from_assignment,
    solve_feasibility,
)


def src_env() -> dict[str, str]:
    """This environment with the package's ``src/`` first on
    ``PYTHONPATH``, for a subprocess that imports ``stickknots``."""
    src = str(Path(codes.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else "")}


@pytest.fixture(scope="session")
def heptagon_census():
    """The 7-gon census, built once for every test that reads it."""
    return search_ngon(7)


@pytest.fixture(scope="session")
def octagon_census():
    """The 8-gon census, built once for every test that reads it."""
    start = time.perf_counter()
    catalog = search_ngon(8)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    return catalog


@pytest.fixture
def plan_builds(monkeypatch):
    """The PD codes handed to the contraction-plan builder, in call order.

    The spy replaces ``codes._contraction_plan``, which no other module of
    the package may bind, or its builds would escape the spy.  The
    reference table is built first, and diagrams that earlier tests dropped
    are collected first, so neither the reference plans nor a plan kept by
    a diagram still alive counts.
    """
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "stickknots" and module is not codes:
            assert "_contraction_plan" not in vars(module), name
    codes._reference_jones()
    gc.collect()
    builds = []
    build = codes._contraction_plan

    def spy(pd):
        builds.append(pd)
        return build(pd)

    monkeypatch.setattr(codes, "_contraction_plan", spy)
    return builds


# ---------------------------------------------------------------------------
# Fourier-Motzkin oracle for strict homogeneous inequality systems.
#
# An independent decision procedure for "does A z > 0 (componentwise) have a
# solution": eliminate variables one at a time over exact rationals.  Strict
# homogeneous systems are infeasible exactly when elimination ever produces
# the empty row 0 > 0.


def fm_feasible(system: HeightSystem) -> bool:
    rows: list[dict[int, Fraction]] = []
    for r in system.rows:
        row = {i: Fraction(float(w)) for i, w in enumerate(r) if w != 0.0}
        if not row:
            return False  # literally 0 > 0
        rows.append(row)
    variables = sorted({i for row in rows for i in row})
    for var in variables:
        pos = [r for r in rows if r.get(var, Fraction(0)) > 0]
        neg = [r for r in rows if r.get(var, Fraction(0)) < 0]
        zero = [r for r in rows if r.get(var, Fraction(0)) == 0]
        new_rows = list(zero)
        for rp in pos:
            for rn in neg:
                a = rp[var]
                b = -rn[var]
                combo: dict[int, Fraction] = {}
                for i in set(rp) | set(rn):
                    v = b * rp.get(i, Fraction(0)) + a * rn.get(i, Fraction(0))
                    if v != 0:
                        combo[i] = v
                combo.pop(var, None)
                if not combo:
                    return False  # derived 0 > 0
                new_rows.append(combo)
        rows = new_rows
        if not rows:
            return True
    return not rows


def exact_slacks(system: HeightSystem, z) -> list[Fraction]:
    """The slacks of heights z on the system's rows, in exact rationals.

    The float rows and heights are binary rationals, so the slacks carry
    no rounding.
    """
    zs = [Fraction(h) for h in z]
    return [sum(Fraction(float(w)) * h for w, h in zip(row, zs))
            for row in system.rows]


# ---------------------------------------------------------------------------
# Brute-force feasible assignments: one LP per assignment, in ascending bits.
# The reference for the cell enumeration in heights.feasible_assignments.


def brute_feasible_assignments(d: Diagram,
                               split_vertices: frozenset[int] = frozenset()):
    c = d.n_crossings
    out = []
    for bits in range(1 << c):
        a = CrossingAssignment.from_bits(c, bits)
        cert = solve_feasibility(
            constraints_from_assignment(d, a, split_vertices))
        if cert is not None:
            out.append((a, cert))
    return out


# ---------------------------------------------------------------------------
# Region count of a central arrangement: the number of feasible assignments,
# decided without walking a cell.
#
# Flipping crossing k negates row r_k, so a diagram's feasible assignments
# are the regions of the central arrangement {r_k . z = 0}.  By Zaslavsky's
# theorem (Mem. AMS 154, 1975) the regions number the arrangement's
# no-broken-circuit (NBC) sets: with the rows in crossing order, the
# independent sets S in which no row below any s in S lies in the span of
# the rows of S from s up (Bjorner, Algebra Universalis 1982).  Parallel
# rows are one hyperplane; the later of two fails that test, so it joins no
# set.  A set grows in decreasing index, so each of those spans is checked
# once, when its lowest row joins.


def nbc_region_count(rows, tol: float = 1e-9) -> int:
    """The number of regions of the arrangement {r . z = 0} over ``rows``.

    A row lies in a span when its squared residual against the span is at
    most ``tol`` times its squared norm: a float rank with a tolerance, for
    the rows of n-gon walks.  Rows of ``Fraction`` (an object array, as
    ``exact_height_rows`` gives) with ``tol=0`` give exact ranks, and the
    count is exact.
    """
    rows = np.asarray(rows)
    floor = tol * (rows * rows).sum(axis=1)

    def count(E, top: int) -> int:
        # E[j]: row j's residual against the span of the set so far; a row
        # s < top joins when it has a residual and, once its residual is
        # projected out, every row j < s still has one
        E = E[:top]
        H = E @ E.T
        d = H.diagonal()
        free = d > floor[:top]
        dd = np.where(free, d, 1)
        left = d[:, None] - H * H / dd[None, :]
        below = np.tri(top, k=-1, dtype=bool).T  # below[j, s]: j < s
        joins = free & ~((left <= floor[:top, None]) & below).any(axis=0)
        return 1 + sum(count(E - np.outer(H[:, s] / d[s], E[s]), s)
                       for s in np.flatnonzero(joins))

    return count(rows, len(rows))


def exact_height_rows(vertices: list[tuple[int, int]]) -> np.ndarray:
    """The height rows of a clean integer walk's crossings in exact
    rationals, as an object array: one row per transversal (i, j, t, s)
    of ``exact_walk_events``, the height on edge i at t minus the height
    on edge j at s, one column per vertex."""
    m = len(vertices)
    transversals, degenerate = exact_walk_events(vertices)
    assert not degenerate, vertices
    rows = np.full((len(transversals), m), Fraction(0), dtype=object)
    for k, (i, j, t, s) in enumerate(transversals):
        for edge, u, sign in ((i, t, 1), (j, s, -1)):
            rows[k, edge] += sign * (1 - u)
            rows[k, (edge + 1) % m] += sign * u
    return rows


# ---------------------------------------------------------------------------
# Exact segment intersection over rationals (for integer-coordinate walks)


def exact_walk_events(vertices: list[tuple[int, int]]):
    """Classify every non-adjacent edge pair of an integer closed walk.

    Returns (transversals, degenerate_flags) where transversals is a list of
    (i, j, t, s) with exact rational parameters strictly inside both open
    unit intervals, and degenerate_flags is True when any pair meets at an
    endpoint, passes through a vertex, or overlaps collinearly.
    """
    m = len(vertices)
    transversals = []
    degenerate = False
    for i in range(m):
        for j in range(i + 2, m):
            if i == 0 and j == m - 1:
                continue
            p0, p1 = vertices[i], vertices[(i + 1) % m]
            q0, q1 = vertices[j], vertices[(j + 1) % m]
            r = (p1[0] - p0[0], p1[1] - p0[1])
            s_ = (q1[0] - q0[0], q1[1] - q0[1])
            den = r[0] * s_[1] - r[1] * s_[0]
            w = (q0[0] - p0[0], q0[1] - p0[1])
            if den == 0:
                cr = w[0] * r[1] - w[1] * r[0]
                if cr == 0:
                    # collinear: overlapping ranges degenerate
                    dot = lambda a, b: a[0] * b[0] + a[1] * b[1]
                    rr = dot(r, r)
                    b0 = Fraction(dot(w, r), rr)
                    b1 = b0 + Fraction(dot(s_, r), rr)
                    lo, hi = min(b0, b1), max(b0, b1)
                    if hi >= 0 and lo <= 1:
                        degenerate = True
                continue
            t = Fraction(w[0] * s_[1] - w[1] * s_[0], den)
            s = Fraction(w[0] * r[1] - w[1] * r[0], den)
            if 0 < t < 1 and 0 < s < 1:
                transversals.append((i, j, t, s))
            elif 0 <= t <= 1 and 0 <= s <= 1:
                degenerate = True  # endpoint contact
    # coincident vertices also count as degenerate contacts
    if len(set(vertices)) != m:
        degenerate = True
    return transversals, degenerate


def exact_vertex_contacts(vertices: list[tuple[int, int]]):
    """The exact vertex contacts of an integer closed walk.

    Returns (contacts, overlap).  contacts is the set of
    ("vertex_coincidence", (i, j)) for coincident vertices i < j and of
    ("vertex_on_edge", (v, e)) for each vertex v strictly inside an edge e
    not incident to it.  overlap is True when two non-adjacent edges share a
    segment of positive length.
    """
    m = len(vertices)
    contacts = {("vertex_coincidence", (i, j))
                for i in range(m) for j in range(i + 1, m)
                if vertices[i] == vertices[j]}
    overlap = False
    for e in range(m):
        (ax, ay), (bx, by) = vertices[e], vertices[(e + 1) % m]
        dx, dy = bx - ax, by - ay
        length2 = dx * dx + dy * dy
        # each vertex on the line of edge e, with its position along the
        # edge scaled by the edge's squared length
        pos = {v: (x - ax) * dx + (y - ay) * dy
               for v, (x, y) in enumerate(vertices)
               if dx * (y - ay) - dy * (x - ax) == 0}
        for v, t in pos.items():
            if v not in (e, (e + 1) % m) and 0 < t < length2:
                contacts.add(("vertex_on_edge", (v, e)))
            # edge v (vertex v to vertex v + 1) lies on the line too
            w = (v + 1) % m
            if w in pos and v not in ((e - 1) % m, e, (e + 1) % m):
                lo, hi = sorted((t, pos[w]))
                overlap |= min(hi, length2) > max(lo, 0)
    return contacts, overlap


# ---------------------------------------------------------------------------
# Segment intersection in Vec2 arithmetic: the reference for the narrow phase
# in geometry.segment_intersection, which works on coordinate locals and must
# return bitwise-equal results.  Every Vec2 temporary checks that its
# components are finite.


def reference_segment_intersection(p0: Vec2, p1: Vec2, q0: Vec2, q1: Vec2,
                                   eps: float):
    d1 = p1 - p0
    d2 = q1 - q0
    len1 = d1.norm()
    len2 = d2.norm()
    if len1 <= eps or len2 <= eps:
        raise InvalidParameterError("segment shorter than tolerance")

    den = d1.cross(d2)
    if abs(den) <= eps * len1 * len2:
        return _reference_parallel_case(p0, q0, q1, d1, len1, eps)

    w = q0 - p0
    t = w.cross(d2) / den
    s = w.cross(d1) / den
    if t * len1 < -eps or (t - 1.0) * len1 > eps:
        return None
    if s * len2 < -eps or (s - 1.0) * len2 > eps:
        return None
    if math.isnan(t):
        raise InvalidParameterError("non-finite meeting point")
    point = Vec2(p0.x + t * d1.x, p0.y + t * d1.y)
    near_end = min(
        (point - p0).norm(), (point - p1).norm(),
        (point - q0).norm(), (point - q1).norm(),
    )
    if near_end <= eps:
        return DegenerateContact("vertex_contact", t=t, s=s, point=point)
    return Transversal(t=t, s=s, point=point)


def _reference_parallel_case(p0, q0, q1, d1, len1, eps):
    off0 = abs((q0 - p0).cross(d1)) / len1
    off1 = abs((q1 - p0).cross(d1)) / len1
    if off0 > eps or off1 > eps:
        return None
    u = Vec2(d1.x / len1, d1.y / len1)
    a0, a1 = 0.0, len1
    b0 = (q0 - p0).dot(u)
    b1 = (q1 - p0).dot(u)
    lo = max(min(a0, a1), min(b0, b1))
    hi = min(max(a0, a1), max(b0, b1))
    if hi - lo > eps:
        return DegenerateContact("collinear_overlap")
    if hi - lo >= -eps:
        point = p0 + u.scaled(0.5 * (lo + hi))
        return DegenerateContact("vertex_contact", point=point)
    return None


# ---------------------------------------------------------------------------
# Exact stick merging over rationals (for clean integer-coordinate walks)


def _exact_meet(p0, p1, q0, q1, neighbours: bool) -> bool:
    """Whether closed segments p0-p1 and q0-q1 meet.

    Neighbours share an endpoint, which does not count: they meet only when
    they overlap collinearly in a segment of positive length.
    """
    r = (p1[0] - p0[0], p1[1] - p0[1])
    s_ = (q1[0] - q0[0], q1[1] - q0[1])
    w = (q0[0] - p0[0], q0[1] - p0[1])
    den = r[0] * s_[1] - r[1] * s_[0]
    if den != 0:
        if neighbours:
            return False  # the lines meet once, at the shared endpoint
        t = Fraction(w[0] * s_[1] - w[1] * s_[0], den)
        s = Fraction(w[0] * r[1] - w[1] * r[0], den)
        return 0 <= t <= 1 and 0 <= s <= 1
    if w[0] * r[1] - w[1] * r[0] != 0:
        return False  # parallel lines
    rr = r[0] * r[0] + r[1] * r[1]
    b0 = Fraction(w[0] * r[0] + w[1] * r[1], rr)
    b1 = b0 + Fraction(s_[0] * r[0] + s_[1] * r[1], rr)
    lo, hi = max(min(b0, b1), 0), min(max(b0, b1), 1)
    return hi > lo if neighbours else hi >= lo


def _touches_chord(g: Degeneracy) -> bool:
    """Whether a contact involves vertex 0 or 1, or edge 0, of its walk
    (a walk with no retrace pairs)."""
    if g.kind == "vertex_on_edge":
        return g.involved[0] < 2 or g.involved[1] == 0
    if g.kind == "vertex_coincidence":
        return g.involved[0] < 2  # involved vertices are sorted
    return g.involved[0] == 0  # collinear_overlap: sorted edges


def cut_walk_chord_is_clear(verts: list[Vec2], i: int,
                            eps: float = EPS_DEFAULT) -> bool:
    """``codes._chord_is_clear`` decided by a whole ``detect_crossings``.

    The walk with vertex i + 1 cut out, rotated so that the chord is edge
    0, is detected whole: the chord is clear when that walk collapses no
    retrace, no crossing involves edge 0, and no contact involves edge 0
    or its endpoints.
    """
    mm = len(verts)
    cut = [verts[(i + k) % mm] for k in range(mm) if k != 1]
    if (cut[1] - cut[0]).norm() <= eps:
        return False
    cd = detect_crossings(Walk(tuple(cut) + (cut[0],)), eps)
    return (cd.walk.n_edges == mm - 1
            and all(c.edge_a for c in cd.crossings)
            and not any(map(_touches_chord, cd.degeneracies)))


def exact_merged_sticks(vertices: list[tuple[int, int]]) -> int:
    """Stick count of a clean integer walk after merging crossing-free runs.

    The same greedy rule as ``merge_crossingless_runs``, decided exactly:
    edges that carry a transversal stay; otherwise the first pair of
    consecutive edges whose chord meets no other edge, except its two
    neighbours at their shared endpoints, merges, and the scan restarts.
    The walk must be clean (``exact_walk_events`` finds no degeneracy), so
    every crossing is interior to both of its edges.
    """
    transversals, degenerate = exact_walk_events(vertices)
    assert not degenerate, vertices
    blocked = {e for i, j, _, _ in transversals for e in (i, j)}
    poly = list(vertices)
    flags = [e in blocked for e in range(len(poly))]

    def chord_is_clear(i: int) -> bool:
        m = len(poly)
        p, q = poly[i], poly[(i + 2) % m]
        if p == q:
            return False
        return not any(
            _exact_meet(p, q, poly[j], poly[(j + 1) % m],
                        j in ((i - 1) % m, (i + 2) % m))
            for j in range(m) if j not in (i, (i + 1) % m))

    merged = True
    while merged and len(poly) > 3:
        merged = False
        m = len(poly)
        for i in range(m):
            if not flags[i] and not flags[(i + 1) % m] and chord_is_clear(i):
                del poly[(i + 1) % m]
                del flags[(i + 1) % m]
                merged = True
                break
    return len(poly)


# ---------------------------------------------------------------------------
# Exact 2^c state-sum bracket, independent of stickknots.codes
#
# Ports of a PD tuple run counterclockwise from the incoming under-strand.
# The A-smoothing joins ports 1-2 and 3-0, the B-smoothing 0-1 and 2-3.

_SMOOTHING_A = (3, 2, 1, 0)  # port -> the port it is joined to
_SMOOTHING_B = (1, 0, 3, 2)


def _poly_mul(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def state_sum_bracket(pd) -> dict[int, int]:
    """Kauffman bracket of a PD code as {exponent of A: nonzero coefficient}.

    Sums A^(#A - #B) * (-A^2 - A^-2)^(loops - 1) over all 2^c smoothing
    states.  A state's loops are counted by following arcs through it:
    port 4k + i is joined to its smoothing partner at crossing k, then to
    the other end of the arc that leaves there.
    """
    c = len(pd)
    if c == 0:
        return {0: 1}
    ends: dict[int, list[int]] = {}
    for k, tup in enumerate(pd):
        for i, arc in enumerate(tup):
            ends.setdefault(arc, []).append(4 * k + i)
    arc_end = [0] * (4 * c)
    for first, second in ends.values():
        arc_end[first], arc_end[second] = second, first
    loop_power = [{0: 1}]
    for _ in range(2 * c):
        loop_power.append(_poly_mul(loop_power[-1], {2: -1, -2: -1}))
    total: dict[int, int] = {}
    for state in range(1 << c):
        joined = [4 * k + (_SMOOTHING_B if state >> k & 1 else _SMOOTHING_A)[i]
                  for k in range(c) for i in range(4)]
        unseen = [True] * (4 * c)
        loops = 0
        for start in range(4 * c):
            if not unseen[start]:
                continue
            loops += 1
            port = start
            while True:
                unseen[port] = unseen[joined[port]] = False
                port = arc_end[joined[port]]
                if port == start:
                    break
        shift = c - 2 * bin(state).count("1")
        for e, coeff in loop_power[loops - 1].items():
            total[e + shift] = total.get(e + shift, 0) + coeff
    return {e: coeff for e, coeff in total.items() if coeff}


def random_integer_walk(rng: random.Random, n: int,
                        span: int = 7) -> list[tuple[int, int]]:
    """A random closed integer walk of n steps (last step closes the loop)."""
    while True:
        steps = [(rng.randint(-span, span), rng.randint(-span, span))
                 for _ in range(n - 1)]
        last = (-sum(s[0] for s in steps), -sum(s[1] for s in steps))
        steps.append(last)
        if any(s == (0, 0) for s in steps):
            continue
        verts = [(0, 0)]
        for sx, sy in steps:
            verts.append((verts[-1][0] + sx, verts[-1][1] + sy))
        return verts[:-1]


def walk_from_integer_vertices(vertices: list[tuple[int, int]]) -> Walk:
    pts = tuple(Vec2(float(x), float(y)) for x, y in vertices)
    return Walk(pts + (pts[0],))


def vector_set_from_integer_vertices(vertices) -> VectorSet:
    m = len(vertices)
    return VectorSet.from_pairs(
        (float(vertices[(i + 1) % m][0] - vertices[i][0]),
         float(vertices[(i + 1) % m][1] - vertices[i][1]))
        for i in range(m))


def near_regular_hexagon() -> Diagram:
    """A clean 7-crossing diagram on which HiGHS leaves LPs undecided.

    The regular hexagon's vectors with each angle moved by at most 1e-3,
    and the last two vectors solved to close the walk, in the ordering
    (0, 3, 4, 1, 5, 2).  A fresh model of the system of bits 47, or of its
    total flip 80, ends with HiGHS status Unknown.
    """
    vectors = VectorSet.from_pairs([
        (0.999999581913322, 0.0009144250548936407),
        (0.4991891866563608, 0.8664930212790873),
        (-0.5001881060554735, 0.8659167734607284),
        (-0.9999999556671584, 0.0002977678311387445),
        (0.4991361562164779, -0.8665235701107269),
        (-0.49813686306352867, -0.8670984175151211)])
    return diagram_from_ordering(vectors, Ordering((0, 3, 4, 1, 5, 2)))
