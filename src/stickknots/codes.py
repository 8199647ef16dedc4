"""Diagram codes and small-knot classification.

Every knot code takes one path.  A diagram and an over/under choice at
every crossing give a *signed* Gauss code: the crossing visits in walk
order, each marked over or under and carrying the crossing's writhe sign
(+1 when the over strand passes from the right of the under strand to its
left).  ``gauss_to_pd`` turns that code, and nothing else, into a planar-diagram
(PD) code.  The one bracket engine comes in two halves.
``_contraction_plan`` adds the crossings one at a time to a growing tangle
and records, for each pairing of its open arc ends, where each smoothing
sends it, so its cost follows the tangle's boundary rather than 2^c
(Bar-Natan, "Fast Khovanov homology computations", JKTR 2007); none of
this depends on the over/under choices.  ``_evaluate`` pushes one
assignment through that plan with each state's partial bracket packed
into one integer: its polynomial in Y = A^2 evaluated at Y = 2^w, with
w = 3c + 2 bits per power for c crossings, and offset by Y^(2c) so that
each closed loop's factor d = -(1 + Y^2) / Y is an exact multiply and
right shift.  The last step closes at least one loop in every state, so
its loop count is lowered by one, which gives the bracket's
d^(loops - 1).  The bound: the coefficients' absolute sum is at most
2^c * 2^(loops - 1) < 2^(3c) < 2^(w - 1), so each balanced digit is one
coefficient, and no state closes more than 2c loops, so the offset keeps
every division by Y exact.  The writhe normalization of the decoded
bracket gives the Jones polynomial.  ``BracketTable`` keeps one
projection's PD code and its plan, built on first use, and brackets each
crossing assignment as a flip of it.  The knot is classified among the
small types (unknot, 3_1, 4_1, 5_1, 5_2) that the stick constructions can
produce, against reference polynomials computed in-process from standard
minimal PD fixtures and validated by determinants; tricolorability is read
off the determinant.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .geometry import (EPS_DEFAULT, Degeneracy, Diagram, InvalidParameterError,
                       Walk, detect_crossings)

__all__ = [
    "CrossingAssignment",
    "GaussEntry",
    "GaussCode",
    "PDCode",
    "LaurentPoly",
    "KnotClass",
    "extract_gauss_code",
    "gauss_to_pd",
    "pd_writhe",
    "kauffman_bracket",
    "jones",
    "determinant",
    "tricolorable",
    "classify",
    "classify_jones",
    "merge_crossingless_runs",
    "stick_filter",
    "alternating_assignment",
    "diagram_writhe",
    "BracketTable",
    "UNKNOT",
    "TREFOIL_PD",
    "FIGURE_EIGHT_PD",
    "CINQUEFOIL_PD",
    "THREE_TWIST_PD",
]

# ---------------------------------------------------------------------------
# Crossing assignments and Gauss codes


@dataclass(frozen=True)
class CrossingAssignment:
    """Which strand passes over at each crossing of a target diagram.

    ``over_a[k]`` is True when ``edge_a`` of crossing ``k`` is the over
    strand.
    """

    over_a: tuple[bool, ...]

    @property
    def bits(self) -> int:
        """Bit k set <=> edge_a of crossing k passes over."""
        return sum(1 << k for k, o in enumerate(self.over_a) if o)

    @classmethod
    def from_bits(cls, n_crossings: int, bits: int) -> "CrossingAssignment":
        if not 0 <= bits < 1 << n_crossings:
            raise InvalidParameterError(
                f"assignment bits {bits} out of range for {n_crossings} crossings")
        return cls(tuple(bool(bits >> k & 1) for k in range(n_crossings)))

    def flipped(self) -> "CrossingAssignment":
        return CrossingAssignment(tuple(not o for o in self.over_a))

    def __len__(self) -> int:
        return len(self.over_a)


@dataclass(frozen=True)
class GaussEntry:
    """One crossing visit: ``sign`` is the crossing's writhe sign (+1/-1)."""

    crossing: int
    over: bool
    sign: int


@dataclass(frozen=True)
class GaussCode:
    """Signed cyclic sequence of crossing visits along the walk traversal.

    Each crossing appears once over and once under, both visits carrying
    the same writhe sign.
    """

    entries: tuple[GaussEntry, ...]

    def __post_init__(self) -> None:
        seen: dict[int, list[GaussEntry]] = {}
        for e in self.entries:
            seen.setdefault(e.crossing, []).append(e)
        for cid, visits in seen.items():
            if sorted(e.over for e in visits) != [False, True]:
                raise InvalidParameterError(
                    f"crossing {cid} must appear exactly once over and once under")
            if visits[0].sign != visits[1].sign or visits[0].sign not in (-1, 1):
                raise InvalidParameterError(
                    f"crossing {cid} needs one sign, +1 or -1, on both visits")

    def __len__(self) -> int:
        return len(self.entries)


PDCode = tuple[tuple[int, int, int, int], ...]


def _visit_order(d: Diagram) -> list[tuple[int, float, int, str]]:
    """Crossing visits (edge, parameter, crossing index, side) in walk order."""
    visits = []
    for k, c in enumerate(d.crossings):
        visits.append((c.edge_a, c.t_a, k, "a"))
        visits.append((c.edge_b, c.t_b, k, "b"))
    visits.sort(key=lambda v: (v[0], v[1], v[2]))
    return visits


def _check_assignment(d: Diagram, a: CrossingAssignment) -> None:
    if len(a) != d.n_crossings:
        raise InvalidParameterError(
            f"assignment covers {len(a)} crossings, diagram has {d.n_crossings}")


def _crossing_signs(d: Diagram, a: CrossingAssignment) -> list[int]:
    """Writhe sign of each crossing under the assignment's over/under roles,
    for a clean diagram and an assignment of its length."""
    # c.sign is cross(dir_a, dir_b); the writhe sign is cross(under, over).
    return [-c.sign if over else c.sign
            for c, over in zip(d.crossings, a.over_a)]


def _writhe_signs(d: Diagram, a: CrossingAssignment) -> list[int]:
    """``_crossing_signs`` after checking the diagram and the assignment."""
    d.require_clean()
    _check_assignment(d, a)
    return _crossing_signs(d, a)


def extract_gauss_code(d: Diagram, a: CrossingAssignment) -> GaussCode:
    """Linearize the diagram: signed crossings in traversal order."""
    signs = _writhe_signs(d, a)
    entries = []
    for edge, t, k, side in _visit_order(d):
        over = a.over_a[k] if side == "a" else not a.over_a[k]
        entries.append(GaussEntry(crossing=k, over=over, sign=signs[k]))
    return GaussCode(tuple(entries))


def gauss_to_pd(g: GaussCode) -> PDCode:
    """Convert a signed Gauss code to a PD code, one tuple per crossing.

    Arc i+1 enters visit i, so arcs are labeled 1..2c in traversal order.
    Each tuple lists the incident arcs counterclockwise from the incoming
    under-strand: (u_in, o_in, u_out, o_out) at a positive crossing and
    (u_in, o_out, u_out, o_in) at a negative one.  Tuples come in
    increasing crossing id.
    """
    n = len(g.entries)
    by_crossing: dict[int, dict[bool, int]] = {}
    for i, e in enumerate(g.entries):
        by_crossing.setdefault(e.crossing, {})[e.over] = i
    tuples = []
    for k in sorted(by_crossing):
        u, o = by_crossing[k][False], by_crossing[k][True]
        u_in, u_out = u + 1, (u + 1) % n + 1
        o_in, o_out = o + 1, (o + 1) % n + 1
        if g.entries[u].sign > 0:
            tuples.append((u_in, o_in, u_out, o_out))
        else:
            tuples.append((u_in, o_out, u_out, o_in))
    return tuple(tuples)


def diagram_writhe(d: Diagram, a: CrossingAssignment) -> int:
    """Sum of crossing signs with the under/over roles from the assignment."""
    return sum(_writhe_signs(d, a))


def pd_writhe(pd: PDCode) -> int:
    """Writhe read combinatorially off a PD code with 1..2c arc labeling."""
    n = 2 * len(pd)
    w = 0
    for a, b, c, d in pd:
        pos = (d - b) % n == 1
        neg = (b - d) % n == 1
        if pos == neg:
            raise InvalidParameterError(f"ambiguous crossing orientation {a,b,c,d}")
        w += 1 if (d - b) % n == 1 else -1
    return w


# ---------------------------------------------------------------------------
# Laurent polynomials in A


class LaurentPoly:
    """Integer Laurent polynomial in the bracket variable A."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[dict[int, int]] = None) -> None:
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> "LaurentPoly":
        return cls({exp: coeff})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.key())

    def key(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.coeffs.items()))

    def mirror(self) -> "LaurentPoly":
        """Substitute A -> A^-1 (the mirror image's polynomial)."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

    def evaluate(self, a: complex) -> complex:
        return sum(c * a ** e for e, c in self.coeffs.items())

    def to_json(self) -> dict[str, int]:
        return {str(e): c for e, c in sorted(self.coeffs.items())}

    @classmethod
    def from_json(cls, obj: dict) -> "LaurentPoly":
        return cls({int(e): int(c) for e, c in obj.items()})

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs.items(), reverse=True):
            if e == 0:
                parts.append(f"{c:+d}")
            else:
                parts.append(f"{c:+d}*A^{e}")
        return " ".join(parts)


#: Smoothing pairings in port positions 0..3 (counterclockwise from the
#: incoming under-strand).  The A-smoothing joins the incoming under-strand
#: to the outgoing over-strand; calibrated so that a geometric kink of
#: writhe w contributes the factor -A^{3w}, which the writhe normalization
#: of the Jones polynomial cancels.
_PAIR_A = ((1, 2), (3, 0))
_PAIR_B = ((0, 1), (2, 3))


#: One contraction step: the crossing joined, the number of open-end states
#: after it, and one transition table per value of the crossing's flip bit.
#: A table holds, for each state before the step, the row (A-child,
#: multiplier, shift, B-child, multiplier, shift): each child gains the
#: state's packed value times the multiplier, shifted right, or, where the
#: multiplier is 0, the value shifted left.
_Row = tuple[int, int, int, int, int, int]
_Step = tuple[int, int, tuple[tuple[_Row, ...], tuple[_Row, ...]]]


def _digit_width(c: int) -> int:
    """Bits per power of Y in the packed bracket of a c-crossing PD code."""
    return 3 * c + 2


def _contraction_plan(pd: PDCode) -> tuple[_Step, ...]:
    """The flip-independent half of the bracket: how a PD code contracts.

    Crossings join a growing tangle one at a time, each time the one
    sharing the most arcs with the tangle's open ends (ties to the lowest
    index), which keeps the boundary short on planar diagrams.  A state is
    a pairing of the open ends: for each end in ``ends`` order, the end the
    tangle joins it to.  Smoothing a crossing joins its arc ends in two
    pairs; each join either closes a loop or reconnects two partners.  The
    states reachable after each step, and where each smoothing sends each
    state, depend on the PD code alone, so they are worked out here once,
    as state indices, and every assignment reuses them (``_evaluate``).

    A smoothing that closes L loops multiplies the packed value by
    d^L = (-(1 + Y^2))^L / Y^L, stored as the multiplier (-(1 + Y^2))^L
    and a right shift by L digits (Y = 2^w, w = 3c + 2).  The smoothing
    that counts as A under the flip bit also multiplies by Y, one digit
    less of shift.  A smoothing that closes no loop multiplies by Y or by
    1, so it is stored as the multiplier 0, which marks a left shift by one
    digit or by none, and no bignum multiply.  The last
    step leaves no open end, so each of its smoothings closes at least one
    loop; its loop counts are lowered by one, which turns the state sum's
    d^loops into the bracket's d^(loops - 1).
    """
    uses = Counter(arc for tup in pd for arc in tup)
    for arc, times in sorted(uses.items()):
        if times != 2:
            raise InvalidParameterError(
                f"arc label {arc} appears {times} times (expected 2)")
    w = _digit_width(len(pd))
    # (loops, 1 if the smoothing counts as A) -> (multiplier, shift)
    moves = {(0, 0): (0, 0), (0, 1): (0, w)}
    for loops in (1, 2):  # each of a smoothing's two joins closes <= 1
        d_power = (-1 - (1 << 2 * w)) ** loops
        moves[loops, 0] = (d_power, loops * w)
        moves[loops, 1] = (d_power, (loops - 1) * w)
    seen: Counter = Counter()
    ends: list[int] = []
    states: list[tuple[int, ...]] = [()]
    left = list(range(len(pd)))
    steps = []
    while left:
        # an open end appears at most once among the arcs of one crossing
        open_ends = set(ends)
        k = max(left, key=lambda j: (len(open_ends.intersection(pd[j])), -j))
        left.remove(k)
        tup = pd[k]
        seen.update(tup)
        new_ends = [x for x in ends + list(tup) if seen[x] == 1]
        closing = 0 if left else 1  # the last step ends the state sum
        index: dict[tuple[int, ...], int] = {}
        tables: tuple[list[_Row], list[_Row]] = ([], [])
        for partners in states:
            sent = []
            joined = dict(zip(ends, partners))
            for pairing in (_PAIR_A, _PAIR_B):
                partner = joined.copy()
                loops = -closing
                for i, j in pairing:
                    x, y = tup[i], tup[j]
                    if x == y or partner.get(x) == y:
                        partner.pop(x, None)
                        partner.pop(y, None)
                        loops += 1
                    else:
                        a, b = partner.pop(x, x), partner.pop(y, y)
                        partner[a], partner[b] = b, a
                child = tuple(map(partner.__getitem__, new_ends))
                sent.append((index.setdefault(child, len(index)), loops))
            (a_child, a_loops), (b_child, b_loops) = sent
            for bit, table in enumerate(tables):
                table.append((a_child, *moves[a_loops, 1 - bit],
                              b_child, *moves[b_loops, bit]))
        steps.append((k, len(index), (tuple(tables[0]), tuple(tables[1]))))
        states, ends = list(index), new_ends
    return tuple(steps)


def _evaluate(plan: tuple[_Step, ...], flip: int) -> LaurentPoly:
    """Kauffman bracket of a contraction plan's PD code under ``flip``.

    Bit k of ``flip`` swaps the A and B smoothings at crossing k, which is
    what flipping its over/under does.  Each state's partial bracket is one
    integer: its polynomial in Y = A^2, times A^c, evaluated at Y = 2^w with
    w = 3c + 2 bits per power.  The value starts at Y^(2c), an offset that
    keeps every division by Y exact: a state of c crossings closes at most
    2c loops, since each loop runs along at least one of the 2c arcs.  A
    step multiplies and shifts each state's value as the plan's row for the
    flip bit says, and adds it to the child's.  The final value is
    Y^(2c) * sum over states of Y^(#A) * d^(loops - 1), and its digits
    decode exactly: their absolute sum is at most 2^c * 2^(loops - 1) <
    2^(3c) < 2^(w - 1), so each digit read in [-2^(w-1), 2^(w-1)) is the
    coefficient itself.  Only its nonzero digits are walked.
    """
    c = len(plan)
    if not c:
        return LaurentPoly.one()  # a crossingless diagram is one loop
    w = _digit_width(c)
    values = [1 << 2 * c * w]
    for k, n_states, tables in plan:
        grown = [0] * n_states
        for (a_child, a_mul, a_shift, b_child, b_mul, b_shift), value in zip(
                tables[flip >> k & 1], values):
            grown[a_child] += (value * a_mul >> a_shift if a_mul
                               else value << a_shift)
            grown[b_child] += (value * b_mul >> b_shift if b_mul
                               else value << b_shift)
        values = grown
    return _decode(values[0], c, w)


def _decode(packed: int, c: int, w: int) -> LaurentPoly:
    """The bracket packed by ``_evaluate``: digit i of w bits, read as a
    balanced digit, is the coefficient of Y^i = A^(2i) in A^c * Y^(2c) *
    bracket, so of A^(2i - 5c) in the bracket."""
    mask, half = (1 << w) - 1, 1 << w - 1
    coeffs: dict[int, int] = {}
    i = 0
    while packed:
        skip = ((packed & -packed).bit_length() - 1) // w  # zero digits
        packed >>= skip * w
        i += skip
        digit = packed & mask
        if digit >= half:
            digit -= 1 << w
        coeffs[2 * i - 5 * c] = digit
        packed = (packed - digit) >> w
        i += 1
    return LaurentPoly(coeffs)


def _normalize(bracket: LaurentPoly, writhe: int) -> LaurentPoly:
    """Writhe normalization (-A^3)^(-writhe) * bracket, in variable A."""
    return LaurentPoly.monomial((-1) ** (writhe % 2), -3 * writhe) * bracket


def kauffman_bracket(pd: PDCode) -> LaurentPoly:
    """Kauffman bracket of a PD code: its contraction plan at flip 0."""
    return _evaluate(_contraction_plan(pd), 0)


def jones(pd: PDCode, writhe: int) -> LaurentPoly:
    """Writhe-normalized bracket: (-A^3)^(-writhe) * <pd>, in variable A."""
    return _normalize(kauffman_bracket(pd), writhe)


_DET_POINT = cmath.exp(1j * math.pi / 4.0)


def determinant(pd: PDCode) -> int:
    """|Jones at t = -1| (i.e. |bracket at A = e^{i pi/4}|; the writhe
    normalization has modulus 1 there and cannot change the value)."""
    val = abs(kauffman_bracket(pd).evaluate(_DET_POINT))
    out = round(val)
    if abs(val - out) > 1e-6:
        raise ArithmeticError(f"determinant {val} is not near an integer")
    return out


def tricolorable(g: GaussCode) -> bool:
    """Whether the knot admits a non-constant 3-coloring.

    By Fox's criterion this holds exactly when 3 divides the determinant.
    """
    return determinant(gauss_to_pd(g)) % 3 == 0


# ---------------------------------------------------------------------------
# Knot classes and classification


@dataclass(frozen=True)
class KnotClass:
    """A small knot type with its reference invariants.

    ``stick_number`` is the standard table value; it is None for
    unrecognized types.
    """

    kind: str  # unknot | trefoil | figure_eight | cinquefoil | three_twist | other
    chirality: Optional[str] = None  # left | right | None
    stick_number: Optional[int] = None

    @property
    def label(self) -> str:
        if self.chirality:
            return f"{self.kind}_{self.chirality}"
        return self.kind


_STICK_NUMBER = {
    "unknot": 3,
    "trefoil": 6,
    "figure_eight": 7,
    "cinquefoil": 8,
    "three_twist": 8,
}


def make_knot_class(kind: str, chirality: Optional[str] = None) -> KnotClass:
    if kind == "other":
        return KnotClass(kind="other")
    return KnotClass(kind=kind, chirality=chirality,
                     stick_number=_STICK_NUMBER[kind])


UNKNOT = make_knot_class("unknot")

# Standard minimal planar diagrams of the reference knots; only used to
# compute the reference Jones polynomials in-process (validated by the
# determinant and tricolorability tests).
TREFOIL_PD: PDCode = ((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3))
FIGURE_EIGHT_PD: PDCode = ((4, 2, 5, 1), (8, 6, 1, 5), (6, 3, 7, 4), (2, 7, 3, 8))
CINQUEFOIL_PD: PDCode = ((1, 6, 2, 7), (3, 8, 4, 9), (5, 10, 6, 1),
                         (7, 2, 8, 3), (9, 4, 10, 5))
THREE_TWIST_PD: PDCode = ((1, 4, 2, 5), (3, 8, 4, 9), (5, 10, 6, 1),
                          (9, 6, 10, 7), (7, 2, 8, 3))


@functools.lru_cache(maxsize=1)
def _reference_jones() -> tuple[tuple[KnotClass, LaurentPoly], ...]:
    """Reference (class, Jones) pairs for all recognized small knots.

    Chirality labels follow the sign of the minimal diagram's writhe: the
    variant whose alternating minimal diagram has positive writhe is called
    right-handed; its mirror (A -> A^-1) is left-handed.
    """
    out: list[tuple[KnotClass, LaurentPoly]] = [
        (UNKNOT, LaurentPoly.one()),
    ]
    for kind, pd in (("trefoil", TREFOIL_PD),
                     ("figure_eight", FIGURE_EIGHT_PD),
                     ("cinquefoil", CINQUEFOIL_PD),
                     ("three_twist", THREE_TWIST_PD)):
        w = pd_writhe(pd)
        j = jones(pd, w)
        jm = j.mirror()
        if j == jm:
            out.append((make_knot_class(kind), j))
            continue
        first = "right" if w > 0 else "left"
        second = "left" if w > 0 else "right"
        out.append((make_knot_class(kind, first), j))
        out.append((make_knot_class(kind, second), jm))
    return tuple(out)


def classify_jones(j: LaurentPoly) -> KnotClass:
    """Match a Jones polynomial against the small-knot reference table."""
    for kc, ref in _reference_jones():
        if j == ref:
            return kc
    return make_knot_class("other")


def classify(d: Diagram, a: CrossingAssignment) -> KnotClass:
    """Classify the knot formed by a diagram and a crossing assignment.

    Diagrams with fewer than 3 crossings are unknots outright; otherwise the
    Jones polynomial decides (it separates all knots of up to 5 crossings,
    up to chirality, from each other and from the unknot).
    """
    return BracketTable(d).classify(a)


# ---------------------------------------------------------------------------
# Stick counting


def _touches_chord(g: Degeneracy) -> bool:
    """Whether a contact involves vertex 0 or 1, or edge 0, of its walk
    (a walk with no retrace pairs)."""
    if g.kind == "vertex_on_edge":
        return g.involved[0] < 2 or g.involved[1] == 0
    if g.kind == "vertex_coincidence":
        return g.involved[0] < 2  # involved vertices are sorted
    return g.involved[0] == 0  # collinear_overlap: sorted edges


def merge_crossingless_runs(d: Diagram, eps: float = EPS_DEFAULT) -> int:
    """Effective stick count after merging runs of crossing-free edges.

    Two cyclically consecutive edges merge when neither is incident to any
    crossing and the straight chord replacing them intersects nothing else
    in the diagram (so the merged polygon realizes the same knot with one
    stick fewer); merging repeats until blocked.  A closed polygon never
    drops below 3 edges.  Edges carrying a crossing at their far vertex
    (parameter 1.0) block both edges at that corner.

    A chord is tested by ``detect_crossings`` on the walk with the middle
    vertex cut out, rotated so that the chord is edge 0: the chord is clear
    when that walk collapses no retrace, no crossing involves edge 0, and no
    contact involves edge 0 or its endpoints.
    """
    m = d.walk.n_edges
    blocked = set()
    for c in d.crossings:
        for e, t in ((c.edge_a, c.t_a), (c.edge_b, c.t_b)):
            blocked.add(e % m)
            if t >= 1.0 - 1e-12:
                blocked.add((e + 1) % m)
    verts = [d.walk.vertex(i) for i in range(m)]
    flags = [e in blocked for e in range(m)]

    def chord_is_clear(i: int) -> bool:
        mm = len(verts)
        cut = [verts[(i + k) % mm] for k in range(mm) if k != 1]
        if (cut[1] - cut[0]).norm() <= eps:
            return False
        cd = detect_crossings(Walk(tuple(cut) + (cut[0],)), eps)
        return (cd.walk.n_edges == mm - 1
                and all(c.edge_a for c in cd.crossings)
                and not any(map(_touches_chord, cd.degeneracies)))

    changed = True
    while changed and len(verts) > 3:
        changed = False
        mm = len(verts)
        for i in range(mm):
            if not flags[i] and not flags[(i + 1) % mm] and chord_is_clear(i):
                del verts[(i + 1) % mm]
                del flags[(i + 1) % mm]
                changed = True
                break
    # No closed curve uses fewer than 3 sticks; walks that retrace-collapsed
    # below that are unknots, and the unknot needs 3.
    return max(3, len(verts))


def stick_filter(effective_sticks: int, k: KnotClass) -> bool:
    """False iff the class's stick number exceeds the available sticks."""
    if k.stick_number is None:
        return True
    return effective_sticks >= k.stick_number


# ---------------------------------------------------------------------------
# Assignments


def alternating_assignment(d: Diagram) -> Optional[CrossingAssignment]:
    """The assignment whose over/under strictly alternates along the walk.

    Returns None when no consistent alternation exists.  The complementary
    alternation is the total flip of the returned one.
    """
    d.require_clean()
    visits = _visit_order(d)
    want_over = True
    over_a: dict[int, bool] = {}
    for edge, t, k, side in visits:
        this_over_a = want_over if side == "a" else not want_over
        if k in over_a:
            if over_a[k] != this_over_a:
                return None
        else:
            over_a[k] = this_over_a
        want_over = not want_over
    if not visits:
        return CrossingAssignment(())
    return CrossingAssignment(tuple(over_a[k] for k in range(d.n_crossings)))


# ---------------------------------------------------------------------------
# Classify many assignments of one projection


class BracketTable:
    """One projection's PD code, shared across its crossing assignments.

    Arc labels and the contraction plan do not depend on over/under
    choices; flipping a crossing only swaps its A and B smoothings.  The
    PD code is built once with every ``edge_a`` under, so the bits of an
    assignment are exactly the crossings whose smoothings swap.  The plan
    is built on the first ``bracket`` call and kept, so each bracket is one
    evaluation of it; a table that never brackets (fewer than 3 crossings,
    or ``classify`` never called) never builds one.
    """

    def __init__(self, d: Diagram) -> None:
        base = CrossingAssignment((False,) * d.n_crossings)
        self.diagram = d
        self.n_crossings = d.n_crossings
        self._pd = gauss_to_pd(extract_gauss_code(d, base))
        self._plan: Optional[tuple[_Step, ...]] = None

    def writhe(self, a: CrossingAssignment) -> int:
        return diagram_writhe(self.diagram, a)

    def bracket(self, a: CrossingAssignment) -> LaurentPoly:
        _check_assignment(self.diagram, a)
        return self._bracket(a.bits)

    def jones(self, a: CrossingAssignment) -> LaurentPoly:
        return _normalize(self.bracket(a), self.writhe(a))

    def classify(self, a: CrossingAssignment) -> KnotClass:
        # the one check per label: the diagram was checked clean when the
        # table built its PD code
        _check_assignment(self.diagram, a)
        if self.n_crossings < 3:
            return UNKNOT
        writhe = sum(_crossing_signs(self.diagram, a))
        return classify_jones(_normalize(self._bracket(a.bits), writhe))

    def _bracket(self, flip: int) -> LaurentPoly:
        if self._plan is None:
            self._plan = _contraction_plan(self._pd)
        return _evaluate(self._plan, flip)
