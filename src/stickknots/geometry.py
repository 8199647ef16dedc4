"""Planar vector sets, closed polygonal walks, and crossing detection.

A collection of planar vectors summing to zero can be placed tip-to-tail in
any order to form a closed polygonal walk.  This module builds those walks
and finds their crossings: it collapses retraced edge pairs, then one scan
of the non-adjacent edge pairs whose padded bounding boxes meet finds
transversals, collinear overlaps and the vertex contacts (coincident
vertices, vertices on other edges) that symmetric vector sets produce in
abundance, then resolves each contact by the angular interleaving of the
strands through it.

All computations use double precision with an explicit tolerance ``eps``
(default 1e-9).  Regular polygon coordinates are irrational, so exact
arithmetic is not attempted; every degenerate contact within ``eps`` is
instead classified and either resolved or flagged.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Union

__all__ = [
    "EPS_DEFAULT",
    "CLOSURE_FACTOR",
    "InvalidParameterError",
    "NonGenericDirectionError",
    "DegenerateDiagramError",
    "Vec2",
    "VectorSet",
    "Ordering",
    "Walk",
    "Transversal",
    "DegenerateContact",
    "Crossing",
    "Degeneracy",
    "Diagram",
    "regular_ngon",
    "build_walk",
    "segment_intersection",
    "detect_crossings",
    "diagram_from_ordering",
    "polar_sort",
    "sign_components_ok",
    "unique_sign_component",
    "local_maxima_count",
]

EPS_DEFAULT = 1e-9
#: Closure tolerance is a small multiple of eps: prefix-sum accumulation error
#: stays far below it while genuine non-closure stays far above.
CLOSURE_FACTOR = 10.0


class InvalidParameterError(ValueError):
    """An argument violates a documented precondition."""


class NonGenericDirectionError(RuntimeError):
    """A height direction puts two vertices at equal height; retry perturbed."""


class DegenerateDiagramError(RuntimeError):
    """A diagram with unresolved degeneracies was passed to a consumer that
    requires a clean diagram."""


# ---------------------------------------------------------------------------
# Basic planar types


@dataclass(frozen=True)
class Vec2:
    """A planar vector (or point) with finite components."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidParameterError(f"non-finite components: ({self.x}, {self.y})")

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def scaled(self, k: float) -> "Vec2":
        return Vec2(k * self.x, k * self.y)

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def normalized(self) -> "Vec2":
        n = self.norm()
        if n == 0.0:
            raise InvalidParameterError("cannot normalize the zero vector")
        return Vec2(self.x / n, self.y / n)

    def angle(self) -> float:
        """Polar angle in [0, 2*pi)."""
        a = math.atan2(self.y, self.x)
        if a < 0.0:
            a += 2.0 * math.pi
        return a % (2.0 * math.pi)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class VectorSet:
    """An ordered collection of planar vectors summing to zero."""

    vectors: tuple[Vec2, ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "VectorSet":
        return cls(tuple(Vec2(x, y) for x, y in pairs))

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, i: int) -> Vec2:
        return self.vectors[i]

    def total(self) -> Vec2:
        s = Vec2(0.0, 0.0)
        for v in self.vectors:
            s = s + v
        return s

    def is_zero_sum(self, eps: float = EPS_DEFAULT) -> bool:
        return self.total().norm() <= CLOSURE_FACTOR * eps


@dataclass(frozen=True)
class Ordering:
    """A permutation of vector indices, applied tip-to-tail."""

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise InvalidParameterError(f"not a permutation of 0..{n - 1}: {self.perm}")

    def __len__(self) -> int:
        return len(self.perm)

    def __getitem__(self, i: int) -> int:
        return self.perm[i]

    def rotated(self, k: int) -> "Ordering":
        n = len(self.perm)
        k %= n
        return Ordering(self.perm[k:] + self.perm[:k])

    def reversed_(self) -> "Ordering":
        return Ordering(tuple(reversed(self.perm)))


@dataclass(frozen=True)
class Walk:
    """A closed polygonal walk: n+1 vertices with last = first within tolerance.

    Edge ``i`` runs from ``vertices[i]`` to ``vertices[i + 1]``.
    """

    vertices: tuple[Vec2, ...]

    @property
    def n_edges(self) -> int:
        return len(self.vertices) - 1

    def vertex(self, i: int) -> Vec2:
        return self.vertices[i % self.n_edges]

    def edge(self, i: int) -> tuple[Vec2, Vec2]:
        i %= self.n_edges
        return self.vertices[i], self.vertices[i + 1]

    def edge_vec(self, i: int) -> Vec2:
        p, q = self.edge(i)
        return q - p

    def point_on_edge(self, i: int, t: float) -> Vec2:
        p, q = self.edge(i)
        return Vec2(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))


def regular_ngon(n: int, phase: float = 0.0) -> VectorSet:
    """The n unit vectors at angles ``phase + 2*pi*k/n``."""
    if n < 3:
        raise InvalidParameterError(f"regular_ngon requires n >= 3, got {n}")
    vecs = tuple(
        Vec2(math.cos(phase + 2.0 * math.pi * k / n),
             math.sin(phase + 2.0 * math.pi * k / n))
        for k in range(n)
    )
    return VectorSet(vecs)


def build_walk(vs: VectorSet, ordering: Ordering, eps: float = EPS_DEFAULT) -> Walk:
    """Place the vectors tip-to-tail in the given order, starting at the origin."""
    if len(ordering) != len(vs):
        raise InvalidParameterError(
            f"ordering length {len(ordering)} != vector count {len(vs)}")
    verts = [Vec2(0.0, 0.0)]
    for idx in ordering.perm:
        verts.append(verts[-1] + vs[idx])
    gap = verts[-1].norm()
    if gap > CLOSURE_FACTOR * eps:
        raise InvalidParameterError(
            f"walk does not close: endpoint gap {gap:.3e} exceeds tolerance")
    verts[-1] = verts[0]
    return Walk(tuple(verts))


# ---------------------------------------------------------------------------
# Segment intersection


@dataclass(frozen=True)
class Transversal:
    """A clean interior intersection of two segments."""

    t: float
    s: float
    point: Vec2


@dataclass(frozen=True)
class DegenerateContact:
    """A contact within tolerance of an endpoint or a collinear overlap.

    ``kind`` is ``vertex_contact`` (the intersection point lies within eps of
    an endpoint of either segment) or ``collinear_overlap``.
    """

    kind: str
    t: Optional[float] = None
    s: Optional[float] = None
    point: Optional[Vec2] = None


IntersectionResult = Union[None, Transversal, DegenerateContact]


def segment_intersection(p0: Vec2, p1: Vec2, q0: Vec2, q1: Vec2,
                         eps: float = EPS_DEFAULT) -> IntersectionResult:
    """Intersect segments p0-p1 and q0-q1 with tolerance eps.

    Returns ``None`` when the segments miss, a :class:`Transversal` for a
    clean interior crossing, or a :class:`DegenerateContact` when the
    intersection falls within ``eps`` of an endpoint or the segments overlap
    collinearly.
    """
    d1 = p1 - p0
    d2 = q1 - q0
    len1 = d1.norm()
    len2 = d2.norm()
    if len1 <= eps or len2 <= eps:
        raise InvalidParameterError("segment shorter than tolerance")

    den = d1.cross(d2)
    if abs(den) <= eps * len1 * len2:
        return _parallel_case(p0, q0, q1, d1, len1, eps)

    w = q0 - p0
    t = w.cross(d2) / den
    s = w.cross(d1) / den
    # Reject when the meeting point of the supporting lines lies beyond
    # either segment by more than eps (measured as a distance).
    if t * len1 < -eps or (t - 1.0) * len1 > eps:
        return None
    if s * len2 < -eps or (s - 1.0) * len2 > eps:
        return None
    if math.isnan(t):  # inf - inf: every comparison above was false
        raise InvalidParameterError(
            "the crossing test's cross products overflowed: non-finite "
            "meeting point; coordinates near 1e154 or beyond are too large")
    point = Vec2(p0.x + t * d1.x, p0.y + t * d1.y)
    near_end = min(
        (point - p0).norm(), (point - p1).norm(),
        (point - q0).norm(), (point - q1).norm(),
    )
    if near_end <= eps:
        return DegenerateContact("vertex_contact", t=t, s=s, point=point)
    return Transversal(t=t, s=s, point=point)


def _parallel_case(p0: Vec2, q0: Vec2, q1: Vec2, d1: Vec2, len1: float,
                   eps: float) -> IntersectionResult:
    """Handle (near-)parallel segments: collinear overlap, endpoint touch, or miss."""
    off0 = abs((q0 - p0).cross(d1)) / len1
    off1 = abs((q1 - p0).cross(d1)) / len1
    if off0 > eps or off1 > eps:
        return None
    # Collinear within tolerance: compare 1-d projections along d1.
    u = Vec2(d1.x / len1, d1.y / len1)
    a0, a1 = 0.0, len1
    b0 = (q0 - p0).dot(u)
    b1 = (q1 - p0).dot(u)
    lo = max(min(a0, a1), min(b0, b1))
    hi = min(max(a0, a1), max(b0, b1))
    if hi - lo > eps:
        return DegenerateContact("collinear_overlap")
    if hi - lo >= -eps:
        # Touching only at endpoints.
        point = p0 + u.scaled(0.5 * (lo + hi))
        return DegenerateContact("vertex_contact", point=point)
    return None


# ---------------------------------------------------------------------------
# Diagram types


@dataclass(frozen=True)
class Crossing:
    """A transversal double point between two edges of a walk.

    Parameters lie in (0, 1]; a parameter of exactly 1.0 marks a crossing at
    a walk vertex (the strand turns the corner exactly at the double point,
    represented on the incoming edge of that corner).  ``sign`` is the sign
    of the cross product of the two strand directions, edge_a first.
    """

    edge_a: int
    edge_b: int
    t_a: float
    t_b: float
    point: Vec2
    sign: int

    def __post_init__(self) -> None:
        if self.edge_a >= self.edge_b:
            raise InvalidParameterError("crossing edges must satisfy edge_a < edge_b")
        if self.sign not in (-1, 1):
            raise InvalidParameterError("crossing sign must be +1 or -1")

    def to_json(self) -> dict:
        return {
            "edge_a": self.edge_a,
            "edge_b": self.edge_b,
            "t_a": self.t_a,
            "t_b": self.t_b,
            "point": [self.point.x, self.point.y],
            "sign": self.sign,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Crossing":
        return cls(
            edge_a=int(obj["edge_a"]), edge_b=int(obj["edge_b"]),
            t_a=float(obj["t_a"]), t_b=float(obj["t_b"]),
            point=Vec2(float(obj["point"][0]), float(obj["point"][1])),
            sign=int(obj["sign"]),
        )


@dataclass(frozen=True)
class Degeneracy:
    """A non-transversal contact and how it was resolved.

    kind: one of retrace_pair, vertex_coincidence, vertex_on_edge,
        collinear_overlap.
    involved: indices of the participating features; vertex indices for
        coincidences, (vertex, edge) for vertex_on_edge, edge indices for
        retraces and collinear overlaps (all relative to the collapsed walk,
        except retrace pairs which refer to the walk before their removal).
    resolution: collapsed | crossing | no_crossing | unresolved.
    crossing: the resulting Crossing when resolution == "crossing".
    """

    kind: str
    involved: tuple[int, ...]
    resolution: str
    crossing: Optional[Crossing] = None

    def to_json(self) -> dict:
        obj = {
            "kind": self.kind,
            "involved": list(self.involved),
            "resolution": self.resolution,
        }
        if self.crossing is not None:
            obj["crossing"] = self.crossing.to_json()
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Degeneracy":
        cr = obj.get("crossing")
        return cls(
            kind=str(obj["kind"]),
            involved=tuple(int(i) for i in obj["involved"]),
            resolution=str(obj["resolution"]),
            crossing=Crossing.from_json(cr) if cr is not None else None,
        )


@dataclass(frozen=True)
class Diagram:
    """A closed walk with its detected crossings and degeneracy records.

    ``walk`` is the collapsed walk (retraced edge pairs removed); edge
    indices in crossings and degeneracies refer to it.  ``vectors`` and
    ``ordering`` record the provenance when the diagram was built from a
    vector set.
    """

    walk: Walk
    crossings: tuple[Crossing, ...]
    degeneracies: tuple[Degeneracy, ...] = ()
    vectors: Optional[VectorSet] = None
    ordering: Optional[Ordering] = None

    @property
    def is_degenerate(self) -> bool:
        return any(d.resolution == "unresolved" for d in self.degeneracies)

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    def require_clean(self) -> None:
        if self.is_degenerate:
            raise DegenerateDiagramError(
                "diagram has unresolved degeneracies; refusing to code it")

    def to_json(self) -> dict:
        return {
            "vectors": (None if self.vectors is None else
                        [[v.x, v.y] for v in self.vectors.vectors]),
            "ordering": (None if self.ordering is None else
                         list(self.ordering.perm)),
            "vertices": [[v.x, v.y] for v in self.walk.vertices],
            "crossings": [c.to_json() for c in self.crossings],
            "degeneracies": [d.to_json() for d in self.degeneracies],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Diagram":
        """Rebuild a diagram from ``to_json`` output.

        Raises InvalidParameterError when a field is missing or malformed,
        the last vertex is not the first, a crossing names an edge outside
        the walk or has a parameter outside (0, 1].  Degeneracy indices are
        not range-checked: retrace pairs index the walk before collapse.
        """
        try:
            vectors = None
            if obj.get("vectors") is not None:
                vectors = VectorSet.from_pairs((float(x), float(y))
                                               for x, y in obj["vectors"])
            ordering = None
            if obj.get("ordering") is not None:
                ordering = Ordering(tuple(int(i) for i in obj["ordering"]))
            walk = Walk(tuple(Vec2(float(x), float(y))
                              for x, y in obj["vertices"]))
            crossings = tuple(Crossing.from_json(c) for c in obj["crossings"])
            degeneracies = tuple(Degeneracy.from_json(d)
                                 for d in obj.get("degeneracies", []))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidParameterError(
                f"malformed diagram JSON: {exc!r}") from exc
        m = walk.n_edges
        if m < 1 or walk.vertices[-1] != walk.vertices[0]:
            raise InvalidParameterError(
                "diagram needs two or more vertices, the last equal to "
                "the first")
        for c in crossings:
            if c.edge_a < 0 or c.edge_b >= m:
                raise InvalidParameterError(
                    f"crossing edges ({c.edge_a}, {c.edge_b}) outside "
                    f"0..{m - 1}")
            if not (0.0 < c.t_a <= 1.0 and 0.0 < c.t_b <= 1.0):
                raise InvalidParameterError(
                    f"crossing parameters ({c.t_a}, {c.t_b}) outside (0, 1]")
        return cls(walk=walk, crossings=crossings, degeneracies=degeneracies,
                   vectors=vectors, ordering=ordering)


# ---------------------------------------------------------------------------
# Crossing detection: every crossing is two strands through one point


def _collapse_retraces(walk: Walk, eps: float) -> tuple[Walk, list[Degeneracy]]:
    """Remove cyclically consecutive edge pairs that retrace each other.

    A pair of consecutive edges v, -v contributes nothing to the curve: the
    walk goes out and comes straight back.  Removal is iterated (cyclically)
    until no retraced pair remains; cascades can shorten the walk a lot.
    """
    verts = list(walk.vertices[:-1])
    degs: list[Degeneracy] = []
    changed = True
    while changed and len(verts) >= 2:
        changed = False
        m = len(verts)
        for i in range(m):
            a = verts[i]
            b = verts[(i + 1) % m]
            c = verts[(i + 2) % m]
            if (a - c).norm() <= eps and (a - b).norm() > eps:
                degs.append(Degeneracy(
                    kind="retrace_pair",
                    involved=(i, (i + 1) % m),
                    resolution="collapsed",
                ))
                # Drop the middle vertex and the duplicate return vertex.
                drop = sorted(((i + 1) % m, (i + 2) % m), reverse=True)
                for j in drop:
                    del verts[j]
                changed = True
                break
    if verts:
        collapsed = Walk(tuple(verts) + (verts[0],))
    else:
        collapsed = Walk((Vec2(0.0, 0.0), Vec2(0.0, 0.0)))
    return collapsed, degs


class _Strand(NamedTuple):
    """The walk passing through a point: edge ``edge`` at parameter ``t``,
    and the rays leaving the point backwards and forwards along the walk.
    At t = 1.0 the strand turns the corner at vertex ``edge + 1``."""

    edge: int
    t: float
    rays: tuple[Vec2, Vec2]


def _strand(walk: Walk, edge: int, t: float) -> _Strand:
    d = walk.edge_vec(edge)
    return _Strand(edge, t, (-d, walk.edge_vec(edge + 1) if t == 1.0 else d))


#: Rays closer than this angle (radians) cannot be told apart.
_EPS_ANGLE = 1e-9


def _interleaved(rays_a: tuple[Vec2, Vec2],
                 rays_b: tuple[Vec2, Vec2]) -> Optional[bool]:
    """Whether strand b's rays separate strand a's rays angularly.

    Four rays leave a shared point.  The two strands cross there exactly when
    their rays alternate around the circle.  Returns None when two rays are
    angularly indistinguishable (unresolvable contact).
    """
    labeled = [(r.angle(), 0) for r in rays_a] + [(r.angle(), 1) for r in rays_b]
    labeled.sort()
    for i in range(4):
        a0 = labeled[i][0]
        a1 = labeled[(i + 1) % 4][0]
        gap = (a1 - a0) % (2.0 * math.pi)
        if gap <= _EPS_ANGLE or gap >= 2.0 * math.pi - _EPS_ANGLE:
            if labeled[i][1] != labeled[(i + 1) % 4][1]:
                return None
    pattern = [lab for _, lab in labeled]
    return pattern[0] != pattern[1] and pattern[1] != pattern[2]


def _tangent(rays: tuple[Vec2, Vec2]) -> Vec2:
    """Direction of travel through the point: the sum of the incoming and
    outgoing unit directions (parallel to both for a straight pass)."""
    back, fwd = rays
    nb, nf = back.norm(), fwd.norm()
    return Vec2(fwd.x / nf - back.x / nb, fwd.y / nf - back.y / nb)


def _crossing(a: _Strand, b: _Strand, point: Vec2) -> Crossing:
    """The crossing of two strands at a point: the lower edge is edge_a, and
    the sign is that of cross(tangent on edge_a, tangent on edge_b)."""
    if a.edge > b.edge:
        a, b = b, a
    sign = 1 if _tangent(a.rays).cross(_tangent(b.rays)) > 0.0 else -1
    return Crossing(edge_a=a.edge, edge_b=b.edge, t_a=a.t, t_b=b.t,
                    point=point, sign=sign)


def _resolve_contact(walk: Walk, kind: str,
                     involved: tuple[int, int]) -> Degeneracy:
    """Resolve a vertex contact by the angular interleaving of its strands.

    The first strand turns the corner at vertex ``involved[0]``; the second
    turns the corner at vertex ``involved[1]`` for a vertex_coincidence, and
    passes through the interior of edge ``involved[1]`` for a
    vertex_on_edge.  The strands cross exactly when one strand's rays
    separate the other's; indistinguishable rays leave the contact
    unresolved.
    """
    m = walk.n_edges
    v, w = involved
    a = _strand(walk, (v - 1) % m, 1.0)
    b = (_strand(walk, (w - 1) % m, 1.0) if kind == "vertex_coincidence"
         else _strand(walk, w, _vertex_on_edge_param(walk, v, w)))
    inter = _interleaved(a.rays, b.rays)
    if not inter:
        return Degeneracy(kind, involved,
                          "unresolved" if inter is None else "no_crossing")
    return Degeneracy(kind, involved, "crossing",
                      _crossing(a, b, walk.vertex(v)))


def _vertex_on_edge_param(walk: Walk, v: int, e: int) -> float:
    p, q = walk.edge(e)
    d = q - p
    return (walk.vertex(v) - p).dot(d) / d.dot(d)


def _contacts_at(walk: Walk, i: int, j: int, point: Vec2,
                 eps: float) -> list[tuple[str, tuple[int, int]]]:
    """The contacts that a vertex_contact of edges i and j at point stands for.

    Endpoints of both edges at the point are coincident vertices; an
    endpoint of one edge only lies on the other edge.
    """
    m = walk.n_edges
    near_i = [v % m for v in (i, i + 1) if (walk.vertex(v) - point).norm() <= eps]
    near_j = [v % m for v in (j, j + 1) if (walk.vertex(v) - point).norm() <= eps]
    if near_i and near_j:
        return [("vertex_coincidence", (min(a, b), max(a, b)))
                for a in near_i for b in near_j]
    return ([("vertex_on_edge", (a, j)) for a in near_i]
            + [("vertex_on_edge", (b, i)) for b in near_j])


def detect_crossings(walk: Walk, eps: float = EPS_DEFAULT) -> Diagram:
    """Find all crossings of a closed walk, resolving degenerate contacts.

    Pipeline: collapse retraced edge pairs; one scan of the non-adjacent
    edge pairs whose padded bounding boxes meet then finds transversal
    intersections, collinear overlaps and vertex contacts (coincident
    vertices and vertices on other edges); finally each vertex contact is
    resolved by angular interleaving.  A vertex in more than one contact
    (a triple point) leaves all of its contacts unresolved.  Transversals
    and resolved contacts alike are two strands through one point, built
    into a :class:`Crossing` by one rule.  Crossings are sorted by
    (edge_a, t_a).  Collinear overlaps and unresolvable contacts flag the
    diagram.
    """
    collapsed, degs = _collapse_retraces(walk, eps)
    m = collapsed.n_edges
    if m < 3:
        return Diagram(walk=collapsed, crossings=(), degeneracies=tuple(degs))

    # Broad phase: skip a pair whose padded boxes are apart.  An accepted
    # pair has, in exact arithmetic, points of its two edges within 2*eps.
    # Rounding adds up to ~40*u*S (u the unit roundoff, S the largest
    # |coordinate|), which the transversal branch divides by the lines' sine,
    # over eps/2 when eps > 16*u.  So the pad covers 2*eps + 160*u*S/eps, and
    # it spans the walk when eps <= 16*u.  Edges shorter than eps, and all
    # edges once the cross products overflow, get unbounded boxes: they raise.
    verts = collapsed.vertices
    scale = max(max(abs(v.x), abs(v.y)) for v in verts)
    pad = (eps + 64.0 * sys.float_info.epsilon * scale * (1.0 + 1.0 / eps)
           if math.isfinite(8.0 * scale * scale) else math.inf)
    boxes = [(min(p.x, q.x) - pad, max(p.x, q.x) + pad,
              min(p.y, q.y) - pad, max(p.y, q.y) + pad)
             if math.hypot(q.x - p.x, q.y - p.y) > eps
             else (-math.inf, math.inf, -math.inf, math.inf)
             for p, q in zip(verts, verts[1:])]

    transversals: list[Crossing] = []
    overlaps: list[Degeneracy] = []
    contacts: set[tuple[str, tuple[int, int]]] = set()
    for i in range(m):
        x0, x1, y0, y1 = boxes[i]
        for j in range(i + 2, m - (i == 0)):  # edges 0, m - 1 are adjacent
            a0, a1, b0, b1 = boxes[j]
            if a0 > x1 or a1 < x0 or b0 > y1 or b1 < y0:
                continue
            p0, p1 = collapsed.edge(i)
            q0, q1 = collapsed.edge(j)
            res = segment_intersection(p0, p1, q0, q1, eps)
            if res is None:
                continue
            if isinstance(res, Transversal):
                transversals.append(_crossing(_strand(collapsed, i, res.t),
                                              _strand(collapsed, j, res.s),
                                              res.point))
            elif res.kind == "collinear_overlap":
                overlaps.append(Degeneracy("collinear_overlap", (i, j),
                                           "unresolved"))
            else:
                contacts.update(_contacts_at(collapsed, i, j, res.point, eps))
    if m == 3:
        # A triangle has no non-adjacent edge pair, yet a flat one has a
        # vertex inside its opposite edge.
        for v in range(3):
            e = (v + 1) % 3
            ln = collapsed.edge_vec(e).norm()
            s = _vertex_on_edge_param(collapsed, v, e)
            if math.isnan(s):  # inf / inf
                raise InvalidParameterError(
                    "the vertex-on-edge test's dot products overflowed: "
                    "non-finite edge parameter; coordinates near 1e154 or "
                    "beyond are too large")
            off = (collapsed.point_on_edge(e, s) - collapsed.vertex(v)).norm()
            if off <= eps and eps < s * ln < ln - eps:
                contacts.add(("vertex_on_edge", (v, e)))

    # Sorting puts coincidences before vertex-on-edge contacts (by name),
    # each ordered by the vertices and edges involved.
    ordered = sorted(contacts)
    touching = [inv if kind == "vertex_coincidence" else inv[:1]
                for kind, inv in ordered]
    touches = Counter(v for vs in touching for v in vs)
    resolved = [Degeneracy(kind, inv, "unresolved")
                if any(touches[v] > 1 for v in vs)
                else _resolve_contact(collapsed, kind, inv)
                for (kind, inv), vs in zip(ordered, touching)]
    degs += resolved + overlaps
    crossings = [d.crossing for d in resolved if d.crossing is not None]
    crossings += transversals
    crossings.sort(key=lambda c: (c.edge_a, c.t_a, c.edge_b, c.t_b))
    return Diagram(walk=collapsed, crossings=tuple(crossings),
                   degeneracies=tuple(degs))


def diagram_from_ordering(vs: VectorSet, ordering: Ordering,
                          eps: float = EPS_DEFAULT) -> Diagram:
    """Build the walk for an ordering and detect its crossings."""
    walk = build_walk(vs, ordering, eps)
    d = detect_crossings(walk, eps)
    return Diagram(walk=d.walk, crossings=d.crossings,
                   degeneracies=d.degeneracies, vectors=vs, ordering=ordering)


# ---------------------------------------------------------------------------
# Ordering and component predicates


def polar_sort(vs: VectorSet) -> Ordering:
    """Order the vectors by ascending polar angle in [0, 2*pi).

    Ties are broken by ascending length, then by original index.  A convex
    walk (hence an unknot projection) results for any zero-sum set.
    """
    for v in vs.vectors:
        if v.norm() == 0.0:
            raise InvalidParameterError("polar_sort requires nonzero vectors")
    keyed = sorted(range(len(vs)),
                   key=lambda i: (vs[i].angle(), vs[i].norm(), i))
    return Ordering(tuple(keyed))


def sign_components_ok(vs: VectorSet) -> bool:
    """True iff the x-components take both signs and so do the y-components.

    Both are necessary for the tip-to-tail walk to have any crossing at all.
    """
    tol = 1e-12
    xs = [v.x for v in vs.vectors]
    ys = [v.y for v in vs.vectors]
    return (any(x > tol for x in xs) and any(x < -tol for x in xs)
            and any(y > tol for y in ys) and any(y < -tol for y in ys))


def unique_sign_component(vs: VectorSet) -> Optional[tuple[str, int]]:
    """Find a vector that alone carries one sign of one axis component.

    Returns ``(axis, index)`` when exactly one vector has a positive (or
    negative) component on that axis and every other vector's component is
    non-positive (resp. non-negative); otherwise None.  Such a configuration
    can only produce trivially undoable twists.
    """
    tol = 1e-12
    for axis, comp in (("x", lambda v: v.x), ("y", lambda v: v.y)):
        for sgn in (1.0, -1.0):
            hits = [i for i, v in enumerate(vs.vectors) if sgn * comp(v) > tol]
            if len(hits) == 1:
                return (axis, hits[0])
    return None


def local_maxima_count(walk: Walk, direction: Vec2,
                       eps: float = EPS_DEFAULT) -> int:
    """Count strict cyclic local maxima of vertex heights along a direction.

    Raises :class:`NonGenericDirectionError` when two vertices are at equal
    height within tolerance; callers should retry with a perturbed direction.
    """
    if direction.norm() <= eps:
        raise InvalidParameterError("direction must be nonzero")
    u = direction.normalized()
    m = walk.n_edges
    heights = [walk.vertex(i).dot(u) for i in range(m)]
    scale = max(1.0, max(abs(h) for h in heights))
    for i in range(m):
        for j in range(i + 1, m):
            if abs(heights[i] - heights[j]) <= eps * scale:
                raise NonGenericDirectionError(
                    f"vertices {i} and {j} at equal height along direction")
    count = 0
    for i in range(m):
        if heights[i] > heights[(i - 1) % m] and heights[i] > heights[(i + 1) % m]:
            count += 1
    return count
