"""Diagram codes and small-knot classification.

Every knot code takes one path.  A diagram and an over/under choice at
every crossing, one bit each (``CrossingAssignment.bits``), give a
*signed* Gauss code: the crossing visits in walk order, each marked over
or under and carrying the crossing's writhe sign (+1 when the over strand
passes from the right of the under strand to its left).  ``gauss_to_pd``
turns that code, and nothing else, into a planar-diagram (PD) code.  The
one bracket engine comes in two halves.
``_contraction_plan`` adds the crossings one at a time to a growing tangle
and records, for each pairing of its open arc ends, where each smoothing
sends it, so its cost follows the tangle's boundary rather than 2^c
(Bar-Natan, "Fast Khovanov homology computations", JKTR 2007); none of
this depends on the over/under choices.  ``_evaluate`` pushes one
assignment through that plan with each state's partial bracket packed
into one integer, its polynomial in Y = A^2 evaluated at Y = 2^w with
w = 3c + 2 bits per power (the bounds that make each digit one coefficient
and each division by Y exact are in its docstring).  ``_decode`` reads the
digits, with the writhe normalization folded in, as the Jones polynomial's
(exponent, coefficient) pairs.  A diagram's over/under choices, and a
triple closure scheme's, are flips of one *projection*: a PD code with
every first strand under, each crossing's writhe sign in it, and its plan.
The projection keeps the layers of its last flip's evaluation, so a flip
resumes at the first plan step whose crossing it changes, and flips sorted
in the plan's crossing order (``BracketTable.plan_order``) share the work
of their common prefix.
A flip is labelled among the small types (unknot, 3_1, 4_1, 5_1, 5_2)
that the stick constructions can produce by one lookup of its packed
bracket, undecoded, among reference polynomials computed in-process from
standard minimal PD fixtures, validated by determinants and packed per
crossing count and writhe; tricolorability is read off the determinant.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .geometry import Diagram, InvalidParameterError

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


@dataclass(frozen=True, slots=True, init=False)
class CrossingAssignment:
    """Which strand passes over at each crossing of a target diagram.

    Bit k of ``bits`` is set when ``edge_a`` of crossing ``k`` is the over
    strand.  ``CrossingAssignment(over_a)`` builds it from one bool per
    crossing, and ``over_a`` reads them back.
    """

    n_crossings: int
    bits: int

    def __init__(self, over_a: Sequence[bool]) -> None:
        object.__setattr__(self, "n_crossings", len(over_a))
        object.__setattr__(self, "bits",
                           sum(1 << k for k, o in enumerate(over_a) if o))

    @classmethod
    def from_bits(cls, n_crossings: int, bits: int) -> "CrossingAssignment":
        if not 0 <= bits < 1 << n_crossings:
            raise InvalidParameterError(
                f"assignment bits {bits} out of range for {n_crossings} crossings")
        a = object.__new__(cls)
        object.__setattr__(a, "n_crossings", n_crossings)
        object.__setattr__(a, "bits", bits)
        return a

    @property
    def over_a(self) -> tuple[bool, ...]:
        return tuple(bool(self.bits >> k & 1) for k in range(self.n_crossings))

    def flipped(self) -> "CrossingAssignment":
        return CrossingAssignment.from_bits(
            self.n_crossings, self.bits ^ (1 << self.n_crossings) - 1)

    def __len__(self) -> int:
        return self.n_crossings


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


def extract_gauss_code(d: Diagram, a: CrossingAssignment) -> GaussCode:
    """Linearize the diagram: signed crossings in traversal order."""
    d.require_clean()
    _check_assignment(d, a)
    entries = []
    for edge, t, k, side in _visit_order(d):
        over_a = bool(a.bits >> k & 1)
        # c.sign is cross(dir_a, dir_b); the writhe sign is cross(under, over)
        sign = d.crossings[k].sign
        entries.append(GaussEntry(crossing=k, over=over_a == (side == "a"),
                                  sign=-sign if over_a else sign))
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
    """Sum of crossing signs with the under/over roles from the assignment,
    read off the diagram's projection (``BracketTable.writhe``)."""
    return BracketTable(d).writhe(a)


def pd_writhe(pd: PDCode) -> int:
    """Writhe read combinatorially off a PD code with 1..2c arc labeling."""
    n = 2 * len(pd)
    w = 0
    for a, b, c, d in pd:
        pos, neg = (d - b) % n == 1, (b - d) % n == 1
        if n == 2:  # two arcs: o_in = u_out (b == c) iff positive
            pos, neg = b == c, b == a
        if pos == neg:
            raise InvalidParameterError(f"ambiguous crossing orientation {a,b,c,d}")
        w += 1 if pos else -1
    return w


# ---------------------------------------------------------------------------
# Laurent polynomials in A


class LaurentPoly:
    """Integer Laurent polynomial in the bracket variable A."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[dict[int, int]] = None) -> None:
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

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

    def determinant(self) -> int:
        """|value at A = e^{i pi/4}|: a knot's determinant when this is its
        bracket or Jones polynomial (|Jones at t = -1|, writhe-free)."""
        val = abs(self.evaluate(cmath.exp(1j * math.pi / 4.0)))
        out = round(val)
        if abs(val - out) > 1e-6:
            raise ArithmeticError(f"determinant {val} is not near an integer")
        return out

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
    digit or by none, and no bignum multiply.  The last step leaves no
    open end, so each of its smoothings closes at least one loop; its loop
    counts are lowered by one, which turns the state sum's d^loops into the
    bracket's d^(loops - 1).
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


def _evaluate(plan: tuple[_Step, ...], flip: int,
              path: Optional[list[list[int]]] = None) -> int:
    """Packed Kauffman bracket of a contraction plan's PD code under ``flip``.

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
    coefficient itself.  A crossingless plan gives 1, the one loop.

    ``path`` holds the layers pushed so far, layer i being the state values
    before step i: the evaluation starts at step len(path) - 1 from the
    last layer (from step 0 when the path is empty or not given), appends
    each layer it makes, and leaves c + 1 layers.
    """
    if path is None:
        path = []
    if not path:
        c = len(plan)
        path.append([1 << 2 * c * _digit_width(c)])
    values = path[-1]
    for k, n_states, tables in plan[len(path) - 1:]:
        grown = [0] * n_states
        for (a_child, a_mul, a_shift, b_child, b_mul, b_shift), value in zip(
                tables[flip >> k & 1], values):
            grown[a_child] += (value * a_mul >> a_shift if a_mul
                               else value << a_shift)
            grown[b_child] += (value * b_mul >> b_shift if b_mul
                               else value << b_shift)
        path.append(grown)
        values = grown
    return values[0]


def _decode(packed: int, c: int, writhe: int) -> tuple[tuple[int, int], ...]:
    """(-A^3)^(-writhe) * the bracket ``_evaluate`` packed for c crossings,
    as ascending (exponent, coefficient) pairs, like ``LaurentPoly.key``.
    Digit i of w bits, read as a balanced digit, is the coefficient of
    Y^i = A^(2i) in A^c * Y^(2c) * bracket, so of A^(2i - 5c) in it."""
    w = _digit_width(c)
    mask, half = (1 << w) - 1, 1 << w - 1
    sign, e = -1 if writhe & 1 else 1, -5 * c - 3 * writhe
    pairs = []
    while packed:
        digit = packed & mask
        if digit >= half:
            digit -= 1 << w
        if digit:
            pairs.append((e, sign * digit))
        packed = (packed - digit) >> w
        e += 2
    return tuple(pairs)


def kauffman_bracket(pd: PDCode) -> LaurentPoly:
    """Kauffman bracket of a PD code: ``jones`` at writhe 0."""
    return jones(pd, 0)


def jones(pd: PDCode, writhe: int) -> LaurentPoly:
    """Writhe-normalized bracket: (-A^3)^(-writhe) * <pd>, in variable A."""
    return LaurentPoly(dict(_decode(_evaluate(_contraction_plan(pd), 0),
                                    len(pd), writhe)))


def determinant(pd: PDCode) -> int:
    """|Jones at t = -1|, read off the bracket (``LaurentPoly.determinant``)."""
    return kauffman_bracket(pd).determinant()


def tricolorable(g: GaussCode) -> bool:
    """Whether the knot admits a non-constant 3-coloring.

    By Fox's criterion this holds exactly when 3 divides the determinant.
    """
    return determinant(gauss_to_pd(g)) % 3 == 0


# ---------------------------------------------------------------------------
# Knot classes and classification


_STICK_NUMBER = {
    "unknot": 3,
    "trefoil": 6,
    "figure_eight": 7,
    "cinquefoil": 8,
    "three_twist": 8,
}


@dataclass(frozen=True)
class KnotClass:
    """A small knot type, with its handedness when it has one."""

    kind: str  # unknot | trefoil | figure_eight | cinquefoil | three_twist | other
    chirality: Optional[str] = None  # left | right | None

    @property
    def label(self) -> str:
        if self.chirality:
            return f"{self.kind}_{self.chirality}"
        return self.kind

    @property
    def stick_number(self) -> Optional[int]:
        """The standard table value; None for unrecognized types."""
        return _STICK_NUMBER.get(self.kind)

    def mirror(self) -> "KnotClass":
        """The class of the mirror image: left and right swap."""
        hand = {"left": "right", "right": "left"}.get(self.chirality)
        return KnotClass(self.kind, hand)


UNKNOT = KnotClass("unknot")
OTHER = KnotClass("other")

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
def _reference_jones() -> dict[tuple[tuple[int, int], ...], KnotClass]:
    """Recognized small knots' classes, keyed by their Jones ``key()``.

    Chirality labels follow the sign of the minimal diagram's writhe: the
    variant whose alternating minimal diagram has positive writhe is called
    right-handed; its mirror (A -> A^-1) is left-handed.
    """
    out = {LaurentPoly.one().key(): UNKNOT}
    for kind, pd in (("trefoil", TREFOIL_PD),
                     ("figure_eight", FIGURE_EIGHT_PD),
                     ("cinquefoil", CINQUEFOIL_PD),
                     ("three_twist", THREE_TWIST_PD)):
        w = pd_writhe(pd)
        j = jones(pd, w)
        jm = j.mirror()
        if j == jm:
            out[j.key()] = KnotClass(kind)
            continue
        hands = ("right", "left") if w > 0 else ("left", "right")
        for poly, hand in zip((j, jm), hands):
            out[poly.key()] = KnotClass(kind, hand)
    return out


@functools.lru_cache(maxsize=None)
def _packed_reference(c: int, writhe: int) -> dict[int, KnotClass]:
    """``_reference_jones()`` keyed by the bracket ``_evaluate`` packs at c
    crossings and this writhe: ``_decode`` inverted, each pair (e, coef) a
    digit (e + 5c + 3 * writhe) / 2 worth (-1)^writhe * coef.  A key with a
    digit that cannot occur there is left out."""
    w, sign = _digit_width(c), -1 if writhe & 1 else 1
    out = {}
    for key, k in _reference_jones().items():
        digits = [(divmod(e + 5 * c + 3 * writhe, 2), sign * coef)
                  for e, coef in key]
        if all(i >= 0 and not odd and -1 << w - 1 <= d < 1 << w - 1
               for (i, odd), d in digits):
            out[sum(d << w * i for (i, _), d in digits)] = k
    return out


def classify_jones(j: LaurentPoly) -> KnotClass:
    """Look a Jones polynomial up in the small-knot reference table."""
    return _reference_jones().get(j.key(), OTHER)


def classify(d: Diagram, a: CrossingAssignment) -> KnotClass:
    """Classify the knot formed by a diagram and a crossing assignment.

    Diagrams with fewer than 3 crossings are unknots outright; otherwise the
    Jones polynomial decides (it separates all knots of up to 5 crossings,
    up to chirality, from each other and from the unknot).  The assignment
    is labelled as a flip of the diagram's projection (``BracketTable``).
    """
    return BracketTable(d).classify(a)


# ---------------------------------------------------------------------------
# Stick counting


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
    want_over = True
    seen = bits = 0
    for edge, t, k, side in _visit_order(d):
        over_a = want_over == (side == "a")
        if seen >> k & 1:
            if bits >> k & 1 != over_a:
                return None
        else:
            seen |= 1 << k
            bits |= over_a << k
        want_over = not want_over
    return CrossingAssignment.from_bits(d.n_crossings, bits)


# ---------------------------------------------------------------------------
# Classify many assignments of one projection


class _Projection:
    """A PD code with every first strand under, each crossing's writhe sign
    in that code, and its contraction plan, built on the first bracket.
    Bit k of a flip puts crossing k's first strand over, which swaps its A
    and B smoothings and negates its sign.

    The projection keeps one path: the flip it bracketed last and the
    c + 1 layers of state values ``_evaluate`` made for it.  The layers
    before a step depend only on the bits of the crossings of the steps
    before it, so the next flip resumes at the first step whose crossing
    it changes.  Flips sorted by ``BracketTable.plan_order`` share the
    longest such prefixes.
    """

    def __init__(self, g: GaussCode) -> None:
        self.pd = gauss_to_pd(g)
        self.positive = sum({1 << e.crossing for e in g.entries if e.sign > 0})
        self.negative = sum({1 << e.crossing for e in g.entries if e.sign < 0})
        self.base_writhe = self.positive.bit_count() - self.negative.bit_count()
        self.flip = 0
        self.path: list[list[int]] = []
        self._plan: Optional[tuple[_Step, ...]] = None
        self.prefixes: list[int] = []

    @property
    def plan(self) -> tuple[_Step, ...]:
        """The contraction plan, built on first use with ``prefixes``: for
        each step i, the crossings of steps 0..i as a bit mask."""
        if self._plan is None:
            self._plan = _contraction_plan(self.pd)
            self.prefixes = list(itertools.accumulate(
                1 << k for k, _, _ in self._plan))
        return self._plan

    def writhe(self, flip: int) -> int:
        """Base writhe, -2 per flipped positive and +2 per flipped negative."""
        return self.base_writhe - 2 * ((flip & self.positive).bit_count()
                                       - (flip & self.negative).bit_count())

    def packed(self, flip: int) -> int:
        """``_evaluate`` of the flip's bracket, resumed along the path: the
        layers up to the first step whose crossing the flip changes stay.
        Unrelated flips change an early step, so the scan stops early."""
        plan = self.plan
        changed, keep = flip ^ self.flip, 1
        for prefix in self.prefixes:
            if changed & prefix:
                break
            keep += 1
        del self.path[keep:]
        self.flip = flip
        return _evaluate(plan, flip, self.path)

    def decoded(self, flip: int, writhe: int) -> tuple[tuple[int, int], ...]:
        """``_decode`` of the flip's bracket, normalized for ``writhe``."""
        return _decode(self.packed(flip), len(self.pd), writhe)

    def label(self, flip: int) -> KnotClass:
        """The unknot below 3 crossings, otherwise the reference class of
        the flip's packed bracket, or ``OTHER``."""
        if len(self.pd) < 3:
            return UNKNOT
        return _packed_reference(len(self.pd), self.writhe(flip)).get(
            self.packed(flip), OTHER)


class BracketTable:
    """A diagram's crossing assignments, bracketed as flips of its projection.

    The projection has every ``edge_a`` under, so an assignment's bits are
    its flip.  The first table of a diagram keeps the projection in the
    diagram's own ``__dict__``, as ``functools.cached_property`` would, and
    the projection holds no reference back: every table and ``classify``
    of the diagram share one plan, which dies with the diagram.  A
    degenerate diagram raises and stores nothing.
    """

    def __init__(self, d: Diagram) -> None:
        self.diagram = d
        if "_projection" not in vars(d):
            base = CrossingAssignment.from_bits(d.n_crossings, 0)
            vars(d)["_projection"] = _Projection(extract_gauss_code(d, base))
        self._projection = vars(d)["_projection"]

    def writhe(self, a: CrossingAssignment) -> int:
        _check_assignment(self.diagram, a)
        return self._projection.writhe(a.bits)

    def bracket(self, a: CrossingAssignment) -> LaurentPoly:
        _check_assignment(self.diagram, a)
        return LaurentPoly(dict(self._projection.decoded(a.bits, 0)))

    def jones(self, a: CrossingAssignment) -> LaurentPoly:
        return LaurentPoly(dict(self._projection.decoded(
            a.bits, self.writhe(a))))

    def classify(self, a: CrossingAssignment) -> KnotClass:
        _check_assignment(self.diagram, a)
        return self._projection.label(a.bits)

    def plan_order(self, bits: int) -> int:
        """Sort key for assignment bits: classified in this order, each
        assignment resumes the bracket of the one before it at the first
        contraction step whose crossing it changes.  Below 3 crossings,
        where ``classify`` builds no plan, the bits themselves."""
        if self.diagram.n_crossings < 3:
            return bits
        key = 0  # the bits in the plan's step order, step 0's the highest
        for k, _, _ in self._projection.plan:
            key = key << 1 | bits >> k & 1
        return key
