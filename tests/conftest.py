"""Shared test helpers: exact-arithmetic oracles and generators."""

from __future__ import annotations

import random
from fractions import Fraction

from stickknots.geometry import Vec2, VectorSet, Walk
from stickknots.heights import HeightSystem


# ---------------------------------------------------------------------------
# Fourier-Motzkin oracle for strict homogeneous inequality systems.
#
# An independent decision procedure for "does A z > 0 (componentwise) have a
# solution": eliminate variables one at a time over exact rationals.  Strict
# homogeneous systems are infeasible exactly when elimination ever produces
# the empty row 0 > 0.


def fm_feasible(system: HeightSystem) -> bool:
    rows: list[dict[int, Fraction]] = []
    for c in system.constraints:
        row = {i: Fraction(w) for i, w in c.coeffs if w != 0.0}
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
