"""Triple crossings: resolution and exhaustive small-diagram classification.

A triple crossing is a point where three strands meet.  Fixing the heights
of the three strands (top / middle / bottom) turns it into three ordinary
pairwise crossings.  This module resolves a labeled triple crossing into
such a fragment, enumerates every planar way to close up one triple
crossing together with one ordinary crossing into a knot diagram, and
classifies all resulting 4-crossing knots.

The work is combinatorial: diagrams are assembled as 4-valent maps with a
rotation system (counterclockwise port order at each crossing) and checked
for planarity by face tracing (genus zero iff V - E + F = 2).  A small
fixed geometric model of three pairwise-crossing chords supplies the
rotation system inside the triple-crossing disk.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .geometry import InvalidParameterError, Vec2, segment_intersection
from .codes import (GaussCode, GaussEntry, KnotClass, PDCode, _Projection,
                    gauss_to_pd)

__all__ = [
    "TripleLabeling",
    "FragmentCrossing",
    "ClosureScheme",
    "all_labelings",
    "resolve_triple",
    "enumerate_closures",
    "classify_triple_plus_one",
    "assemble_pd",
    "classify_closure",
    "triple_report",
    "WORKED_SCHEME",
]

#: Strand ends of the triple crossing, in counterclockwise order around its
#: disk.  Strand s runs from end s to end s + 3, so the three strands are
#: 1-4, 2-5 and 3-6 and every pair crosses once.
TRIPLE_ENDS = (1, 2, 3, 4, 5, 6)

#: Strand ends of the ordinary ("traditional") crossing, counterclockwise
#: around its disk; its strands are a-d and b-c (opposite ends).
TRAD_ENDS = ("a", "b", "d", "c")

_HEIGHTS = ("T", "M", "B")


def _strand_of_end(end: int) -> int:
    return end if end <= 3 else end - 3


@dataclass(frozen=True)
class TripleLabeling:
    """A bijection of the three strands to heights top / middle / bottom.

    ``heights[i]`` is the label of strand ``i + 1``; "T" is highest.
    """

    heights: tuple[str, str, str]

    def __post_init__(self) -> None:
        if sorted(self.heights) != sorted(_HEIGHTS):
            raise InvalidParameterError(
                f"labeling must be a bijection onto {_HEIGHTS}, got {self.heights}")

    def rank(self, strand: int) -> int:
        """0 for the top strand, 1 for middle, 2 for bottom."""
        return _HEIGHTS.index(self.heights[strand - 1])

    def over_strand(self, s: int, t: int) -> int:
        """Which of two strands passes over where they cross."""
        return s if self.rank(s) < self.rank(t) else t


def all_labelings() -> tuple[TripleLabeling, ...]:
    """All six strand labelings."""
    return tuple(TripleLabeling(p) for p in itertools.permutations(_HEIGHTS))


@dataclass(frozen=True)
class FragmentCrossing:
    """One pairwise crossing inside a resolved triple crossing.

    ``ports`` lists, counterclockwise, the four strand pieces meeting at the
    crossing; each entry is ``(strand, piece)`` where ``piece`` counts the
    segments of that strand from its low-numbered end (0, 1 or 2).
    """

    strands: tuple[int, int]
    over: int
    ports: tuple[tuple[int, int], tuple[int, int], tuple[int, int], tuple[int, int]]


# ---------------------------------------------------------------------------
# Fixed combinatorial model of the two crossing disks.
#
# Three chords with ends at 60-degree spacing, each offset slightly off
# center so the three pairwise crossings are distinct, determine the
# rotation system and the order of crossings along each strand.  The
# combinatorial outcome is the unique arrangement of three pairwise
# crossing chords with this end pattern.


#: The three crossings inside the triple-crossing disk, one per strand pair.
PAIRS = ((1, 2), (1, 3), (2, 3))

#: Every crossing of a closed-up diagram, in crossing-id (PD tuple) order.
NODES = (*PAIRS, "trad")


@lru_cache(maxsize=1)
def _triple_disk() -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
    """Rotation system: at the crossing of strands s and t, the four pieces
    in counterclockwise order of their outgoing directions.

    Pieces of strand s run from end s to end s + 3: piece 0 before the first
    crossing, piece 1 between, piece 2 after the second.
    """
    chord: dict[int, tuple[Vec2, Vec2]] = {}
    for s in (1, 2, 3):
        p, q = (Vec2(math.cos((k - 1) * math.pi / 3),
                     math.sin((k - 1) * math.pi / 3)) for k in (s, s + 3))
        d = (q - p).normalized()
        off = Vec2(-d.y, d.x).scaled(0.12 * (s - 2))
        chord[s] = (p + off, q + off)
    along: dict[int, list[tuple[float, tuple[int, int]]]] = {1: [], 2: [], 3: []}
    for s, t in PAIRS:
        hit = segment_intersection(*chord[s], *chord[t])
        along[s].append((hit.t, (s, t)))
        along[t].append((hit.s, (s, t)))

    rotation: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    for s, t in PAIRS:
        incident = []
        for strand in (s, t):
            idx = [pair for _, pair in sorted(along[strand])].index((s, t))
            p, q = chord[strand]
            incident.append(((p - q).angle(), (strand, idx)))      # piece before
            incident.append(((q - p).angle(), (strand, idx + 1)))  # piece after
        incident.sort()
        rotation[(s, t)] = tuple(piece for _, piece in incident)
    return rotation


def resolve_triple(label: TripleLabeling) -> tuple[FragmentCrossing, ...]:
    """The three pairwise crossings a labeled triple crossing resolves into."""
    rotation = _triple_disk()
    return tuple(FragmentCrossing(strands=(s, t), over=label.over_strand(s, t),
                                  ports=rotation[(s, t)])
                 for s, t in PAIRS)


# ---------------------------------------------------------------------------
# Closure schemes


@dataclass(frozen=True)
class ClosureScheme:
    """A planar closure of the triple and traditional crossing into a knot.

    ``internal_pair`` joins two ends of distinct triple-crossing strands;
    ``matching`` sends the remaining four triple ends to the four ordinary
    crossing ends.  ``faces`` is the planarity witness: the assembled
    4-valent map traces exactly 6 faces, so V - E + F = 4 - 8 + 6 = 2.
    """

    internal_pair: tuple[int, int]
    matching: tuple[tuple[int, str], ...]
    faces: int

    def arc_partner(self, end: int) -> object:
        if end in self.internal_pair:
            a, b = self.internal_pair
            return b if end == a else a
        for e, trad in self.matching:
            if e == end:
                return trad
        raise InvalidParameterError(f"end {end} not closed by this scheme")


#: The worked closure: join ends 5 and 6 inside the triple crossing, then
#: 1-a, and each next clockwise triple end to the next counterclockwise
#: ordinary end: 2-c, 3-d, 4-b.
WORKED_SCHEME_PAIRING = ((5, 6), (1, "a"), (2, "c"), (3, "d"), (4, "b"))


def _closure_twin(internal_pair: tuple[int, int],
                  matching: tuple[tuple[int, str], ...]
                  ) -> dict[tuple[object, int], tuple[object, int]]:
    """The 4-valent map of one closure, as its port pairing.

    Nodes are the three resolved triple crossings, in ``PAIRS`` order, then
    the ordinary crossing ``"trad"``, whose position i is end
    ``TRAD_ENDS[i]``.  The map sends each port (node, position) to the port
    at the far end of its edge: piece 1 of each triple strand joins its two
    crossings, and each closure arc joins the ports of its two ends, which
    must be each of the ten ends exactly once.  Ports are listed node by
    node, each in position order: the strand walk starts at the first, and
    the PD arc labels follow from that start.
    """
    arcs = (internal_pair, *matching)
    ends = [e for arc in arcs for e in arc]
    if len(ends) != 10 or set(ends) != {*TRIPLE_ENDS, *TRAD_ENDS}:
        raise InvalidParameterError(
            f"closure arcs {arcs} do not join each end exactly once")
    rotation = _triple_disk()
    port_of_end: dict[object, tuple[object, int]] = {
        e: ("trad", pos) for pos, e in enumerate(TRAD_ENDS)}
    middle: dict[int, list[tuple[object, int]]] = {}
    for node, pieces in rotation.items():
        for pos, (strand, piece) in enumerate(pieces):
            if piece == 1:
                middle.setdefault(strand, []).append((node, pos))
            else:
                port_of_end[strand if piece == 0 else strand + 3] = (node, pos)
    joins = list(middle.values())
    joins += [(port_of_end[a], port_of_end[b]) for a, b in arcs]
    twin = {}
    for x, y in joins:
        twin[x], twin[y] = y, x
    return {(node, pos): twin[(node, pos)]
            for node in NODES for pos in range(4)}


def _count_faces(twin) -> int:
    """Faces of the rotation system, traced as orbits of rotate-after-twin."""
    seen = set()
    faces = 0
    for h in twin:
        if h in seen:
            continue
        faces += 1
        cur = h
        while cur not in seen:
            seen.add(cur)
            node, pos = twin[cur]
            cur = (node, (pos + 1) % 4)
    return faces


def _strand_walk(twin) -> list[tuple[object, int]]:
    """Crossing visits (node, in-position) met by following the strands
    straight through from the map's first port until it comes round again.

    The map is one closed curve exactly when the walk makes 8 visits, one
    per edge.
    """
    start = cur = next(iter(twin))
    visits = []
    while True:
        node, pos = twin[cur]
        visits.append((node, pos))
        cur = (node, (pos + 2) % 4)
        if cur == start:
            return visits


def _candidate_pairings() -> Iterator[tuple[tuple[int, int], tuple[tuple[int, str], ...]]]:
    for a, b in itertools.combinations(TRIPLE_ENDS, 2):
        if _strand_of_end(a) == _strand_of_end(b):
            continue  # closing a strand onto itself splits off a component
        rest = [e for e in TRIPLE_ENDS if e not in (a, b)]
        for perm in itertools.permutations(TRAD_ENDS):
            yield (a, b), tuple(zip(rest, perm))


def enumerate_closures() -> tuple[ClosureScheme, ...]:
    """All planar single-component closures of the two crossing disks.

    A scheme joins one pair of ends of distinct triple-crossing strands and
    matches the remaining four triple ends to the ordinary crossing's ends
    (ordinary ends never pair with each other: that would make a link or an
    immediately removable kink).  A scheme survives iff the assembled
    4-valent map is planar (6 traced faces) and a single closed curve.
    """
    out = []
    for internal_pair, matching in _candidate_pairings():
        twin = _closure_twin(internal_pair, matching)
        faces = _count_faces(twin)
        if faces != 6 or len(_strand_walk(twin)) != 8:
            continue
        out.append(ClosureScheme(internal_pair=internal_pair,
                                 matching=matching, faces=faces))
    return tuple(out)


def WORKED_SCHEME() -> ClosureScheme:
    """The worked closure scheme; raises if enumeration ever drops it."""
    internal_pair, *matching = WORKED_SCHEME_PAIRING
    s = ClosureScheme(internal_pair=internal_pair, matching=tuple(matching),
                      faces=6)
    if s not in enumerate_closures():
        raise RuntimeError("worked closure scheme missing from enumeration")
    return s


# ---------------------------------------------------------------------------
# Assembly into PD codes and classification


def _scheme_code(scheme: ClosureScheme, bits: int) -> GaussCode:
    """Signed Gauss code of a scheme's case where bit k puts the first
    strand of crossing k over, which negates the sign it has under.  A
    crossing's first strand is its lower-numbered triple strand, or the
    a-d strand."""
    twin = _closure_twin(scheme.internal_pair, scheme.matching)
    visits = _strand_walk(twin)
    if _count_faces(twin) != 6 or len(visits) != 8:
        raise InvalidParameterError("scheme does not close into a planar knot")
    rotation = _triple_disk()
    ins = [[0, 0] for _ in NODES]  # in-positions: [first strand, other]
    walk = []
    for node, pos in visits:
        k = NODES.index(node)
        first = (pos % 2 == 0 if node == "trad"
                 else rotation[node][pos][0] == node[0])
        ins[k][not first] = pos
        walk.append((k, first))
    # With counterclockwise ports, a crossing is positive exactly when the
    # over strand enters one step counterclockwise of the under-in.
    signs = [1 if o_in == (u_in + 1) % 4 else -1 for u_in, o_in in ins]
    return GaussCode(tuple(
        GaussEntry(k, first == bool(bits >> k & 1),
                   -signs[k] if bits >> k & 1 else signs[k])
        for k, first in walk))


def _over_bits(label: TripleLabeling, trad_over_ad: bool) -> int:
    """Bit k set when the first strand of crossing k passes over."""
    over = [label.over_strand(s, t) == s for s, t in PAIRS] + [trad_over_ad]
    return sum(b << k for k, b in enumerate(over))


def assemble_pd(scheme: ClosureScheme, label: TripleLabeling,
                trad_over_ad: bool) -> tuple[PDCode, int]:
    """PD code and writhe of one closed-up diagram; ``trad_over_ad`` puts
    the a-d strand of the ordinary crossing over."""
    g = _scheme_code(scheme, _over_bits(label, trad_over_ad))
    return gauss_to_pd(g), sum(e.sign for e in g.entries if e.over)


def classify_closure(scheme: ClosureScheme, label: TripleLabeling,
                     trad_over_ad: bool) -> KnotClass:
    """Knot type of one closed-up, height-labeled diagram."""
    return _Projection(_scheme_code(scheme, 0)).label(
        _over_bits(label, trad_over_ad))


def _classified_cases(schemes: tuple[ClosureScheme, ...]) -> Iterator[
        tuple[ClosureScheme, TripleLabeling, bool, KnotClass]]:
    """Every scheme with every height labeling and ordinary-crossing
    choice, and the knot class of each.  A scheme's cases are the flips by
    ``_over_bits`` of its case with every first strand under, so they
    share that case's projection and plan."""
    for scheme in schemes:
        projection = _Projection(_scheme_code(scheme, 0))
        for label in all_labelings():
            for trad_over_ad in (False, True):
                yield (scheme, label, trad_over_ad,
                       projection.label(_over_bits(label, trad_over_ad)))


def classify_triple_plus_one() -> frozenset[KnotClass]:
    """Knot classes over every planar closure, labeling and crossing choice.

    Exhausts all single-component planar closures (a superset of the
    clockwise/counterclockwise recipe), all 6 height labelings of the triple
    crossing and both choices at the ordinary crossing.
    """
    return frozenset(k for *_, k in _classified_cases(enumerate_closures()))


def triple_report() -> dict:
    """JSON-ready report: every scheme, labeling, choice and its class."""
    schemes = enumerate_closures()
    cases = list(_classified_cases(schemes))
    return {
        "schemes": len(schemes),
        "cases": len(cases),
        "kinds": sorted({k.kind for *_, k in cases}),
        "rows": [{
            "internal_pair": list(scheme.internal_pair),
            "matching": [[e, t] for e, t in scheme.matching],
            "labeling": list(label.heights),
            "ordinary_over_ad": trad_over_ad,
            "class": k.label,
        } for scheme, label, trad_over_ad, k in cases],
    }
