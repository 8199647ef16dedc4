"""Height feasibility of crossing assignments.

An over/under choice at every crossing of a planar diagram is realizable by
straight sticks in 3-space exactly when the strict linear system on vertex
heights is feasible: at each crossing, the over edge's interpolated height
must exceed the under edge's.  A :class:`HeightSystem` is that system's
matrix, one row per crossing and one column per height variable, and asks
for ``rows @ z > 0``.  The system is homogeneous, so feasibility is scale
invariant and "all slacks > 0" can be normalized to "all slacks >= 1";
that reformulation is solved as a linear program.

Flipping a crossing negates its row, so the feasible assignments of one
diagram are the cells of a central hyperplane arrangement, one hyperplane
per crossing.  :func:`feasible_assignments` enumerates those cells one
crossing at a time, solving an LP only where a cell's witness heights do
not already decide a child, so its cost follows the number of feasible
assignments rather than 2^c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from .geometry import Diagram, InvalidParameterError
from .codes import CrossingAssignment

__all__ = [
    "HeightSystem",
    "HeightCertificate",
    "VerifyResult",
    "constraints_from_assignment",
    "solve_feasibility",
    "verify_certificate",
    "feasible_assignments",
    "vertical_stick_augmentation",
    "height_variable_map",
]

#: Certificates needing heights beyond this scale (for the normalized
#: slack-1 system) indicate a system that is feasible only within rounding
#: error of an exactly degenerate boundary; such systems are reported
#: infeasible, since the exact strict system has no solution there.
MAX_CERTIFICATE_SCALE = 1e9


@dataclass(frozen=True, eq=False)
class HeightSystem:
    """The homogeneous strict system ``rows @ z > 0``: one row per
    crossing, one column per height variable."""

    rows: np.ndarray

    @property
    def n_vars(self) -> int:
        return self.rows.shape[1]

    def slacks(self, z: Sequence[float]) -> tuple[float, ...]:
        if len(z) < self.n_vars:
            raise InvalidParameterError(
                f"certificate covers {len(z)} variables, system has {self.n_vars}")
        z = np.asarray(z, dtype=float)[:self.n_vars]
        return tuple(float(s) for s in self.rows @ z)


@dataclass(frozen=True)
class HeightCertificate:
    """Heights satisfying every constraint with slack >= margin > 0."""

    z: tuple[float, ...]
    margin: float

    def to_json(self, assignment: Optional[CrossingAssignment] = None) -> dict:
        obj = {"z": list(self.z), "margin": self.margin}
        if assignment is not None:
            obj["assignment"] = assignment.bits
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "HeightCertificate":
        return cls(z=tuple(float(v) for v in obj["z"]),
                   margin=float(obj["margin"]))


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    min_slack: float


def height_variable_map(d: Diagram,
                        split_vertices: frozenset[int] = frozenset()
                        ) -> dict[tuple[int, str], int]:
    """Map (vertex, "in"|"out") to a height-variable index.

    Unsplit vertices use one shared variable; a split vertex (one carrying a
    vertical stick) gets independent variables for the strand entering and
    the strand leaving, since the stick can bridge any height difference.
    """
    m = d.walk.n_edges
    mapping: dict[tuple[int, str], int] = {}
    next_var = 0
    for v in range(m):
        if v in split_vertices:
            mapping[(v, "in")] = next_var
            mapping[(v, "out")] = next_var + 1
            next_var += 2
        else:
            mapping[(v, "in")] = next_var
            mapping[(v, "out")] = next_var
            next_var += 1
    return mapping


def constraints_from_assignment(d: Diagram, a: CrossingAssignment,
                                split_vertices: frozenset[int] = frozenset()
                                ) -> HeightSystem:
    """One strict inequality per crossing: over height minus under height > 0.

    Row k adds the ``edge_a`` strand's height at the crossing and subtracts
    the ``edge_b`` strand's, and is negated when ``edge_b`` is over.  A
    strand at parameter t on edge e has height (1 - t) z_out(e) +
    t z_in(e + 1), so a crossing at a corner (t = 1.0) puts all of its
    weight on the corner vertex.
    """
    d.require_clean()
    if len(a) != d.n_crossings:
        raise InvalidParameterError("assignment does not cover the diagram")
    var_of = height_variable_map(d, split_vertices)
    m = d.walk.n_edges
    rows = np.zeros((d.n_crossings, 1 + max(var_of.values())))
    for k, c in enumerate(d.crossings):
        for edge, t, sign in ((c.edge_a, c.t_a, 1.0), (c.edge_b, c.t_b, -1.0)):
            rows[k, var_of[(edge % m, "out")]] += sign * (1.0 - t)
            rows[k, var_of[((edge + 1) % m, "in")]] += sign * t
    rows *= np.where(a.over_a, 1.0, -1.0)[:, None]
    return HeightSystem(rows)


def _accepted_margin(A: np.ndarray, z: np.ndarray) -> Optional[float]:
    """The smallest slack of heights z on the rows of A, or None unless the
    heights pass as a certificate: every |z_i| within
    MAX_CERTIFICATE_SCALE and every slack strictly positive."""
    if float(np.max(np.abs(z), initial=0.0)) > MAX_CERTIFICATE_SCALE:
        return None
    margin = float(np.min(A @ z))
    # Numerical safety net; HiGHS guarantees >= 1 - tiny for its solutions.
    return margin if margin > 0.0 else None


def solve_feasibility(sys: HeightSystem) -> Optional[HeightCertificate]:
    """Find heights satisfying every strict inequality, or None.

    Homogeneity makes strictness exact: the system has a solution with all
    slacks > 0 iff it has one with all slacks >= 1.  The latter is solved
    with the HiGHS simplex through an unrestricted-variable split
    z = p - q, minimizing sum(p + q) for a deterministic, small certificate.
    """
    if not len(sys.rows):
        return HeightCertificate(z=(0.0,) * sys.n_vars, margin=math.inf)
    # Variables that appear in no constraint are free; solve over the active
    # ones only and report zero heights for the rest.  The C-contiguous copy
    # fixes the summation order of A @ z.
    active = np.flatnonzero(np.any(sys.rows != 0.0, axis=0))
    A = np.ascontiguousarray(sys.rows[:, active])
    rows, n = A.shape
    # A (p - q) >= 1  <=>  -A p + A q <= -1, with p, q >= 0.
    A_ub = np.hstack([-A, A])
    b_ub = -np.ones(rows)
    cost = np.ones(2 * n)
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=[(0, None)] * (2 * n),
                  method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"linear program did not converge: {res.message}")
    z_active = res.x[:n] - res.x[n:]
    margin = _accepted_margin(A, z_active)
    if margin is None:
        return None
    z = np.zeros(sys.n_vars)
    z[active] = z_active
    return HeightCertificate(z=tuple(float(x) for x in z), margin=margin)


def verify_certificate(sys: HeightSystem,
                       cert: HeightCertificate) -> VerifyResult:
    """Recompute every slack; valid iff all are strictly positive."""
    slacks = sys.slacks(cert.z)
    if not slacks:
        return VerifyResult(ok=True, min_slack=math.inf)
    return VerifyResult(ok=all(s > 0.0 for s in slacks),
                        min_slack=min(slacks))


def feasible_assignments(d: Diagram,
                         split_vertices: frozenset[int] = frozenset()
                         ) -> list[tuple[CrossingAssignment, HeightCertificate]]:
    """All over/under assignments realizable by heights, with certificates.

    Flipping crossing k negates row r_k of the system with every ``edge_a``
    over, so the feasible assignments are the cells of the central
    arrangement {r_k . z = 0}.  Crossings are added one at a time and each
    live cell keeps witness heights.  Stepped a little along +-r_k towards
    a child's side of the new hyperplane and rescaled to margin 1, the
    witness decides that child without an LP when it passes
    :func:`solve_feasibility`'s own acceptance.  It can decide the child on
    its own side and, when it lies on or near the hyperplane, both
    children; a child it does not decide is solved, on its signed rows so
    far.  Crossing 0 is fixed with ``edge_a`` over, and the total flips
    are the antipodal cells, with negated heights.  Results are in
    ascending bits.
    """
    d.require_clean()
    c = d.n_crossings
    base = constraints_from_assignment(
        d, CrossingAssignment((True,) * c), split_vertices)
    if c == 0:
        return [(CrossingAssignment(()), solve_feasibility(base))]
    R = base.rows
    # |r_j . r_k|: a step of margin / (2 max_j |r_j . r_k|) along r_k keeps
    # every earlier slack above margin / 2
    gram = np.abs(R @ R.T)
    # a live cell: (bits, row signs, witness heights, margin)
    root = solve_feasibility(HeightSystem(R[:1]))
    cells = [] if root is None else [(1, np.ones(1), np.array(root.z),
                                      root.margin)]
    for k in range(1, c):
        step = R[k] / (2.0 * float(np.max(gram[k, :k + 1])))
        grown = []
        for bits, signs, z, margin in cells:
            for bit in (0, 1):
                child = bits | bit << k
                child_signs = np.append(signs, 2.0 * bit - 1.0)
                A = R[:k + 1] * child_signs[:, None]
                w = z + child_signs[-1] * margin * step
                slack = float(np.min(A @ w))
                witness = None
                if slack > 0.0:
                    m = _accepted_margin(A, w / slack)
                    if m is not None:
                        witness = (w / slack, m)
                if witness is None:
                    cert = solve_feasibility(HeightSystem(A))
                    if cert is not None:
                        witness = (np.array(cert.z), cert.margin)
                if witness is not None:
                    grown.append((child, child_signs, *witness))
        cells = grown
    full = (1 << c) - 1
    found = sorted([(bits, z, m) for bits, _, z, m in cells]
                   + [(full ^ bits, -z, m) for bits, _, z, m in cells],
                   key=lambda cell: cell[0])
    return [(CrossingAssignment.from_bits(c, bits),
             HeightCertificate(z=tuple(float(x) for x in z), margin=m))
            for bits, z, m in found]


def vertical_stick_augmentation(d: Diagram, vertices: frozenset[int]) -> int:
    """Stick count in 3-space after adding a vertical stick at each vertex.

    A vertical stick occupies a single planar point, contributes one stick,
    and decouples the heights of the strands meeting at that vertex (the
    split handled by :func:`height_variable_map`).
    """
    m = d.walk.n_edges
    for v in vertices:
        if not 0 <= v < m:
            raise InvalidParameterError(f"vertex {v} outside walk of {m} vertices")
    return m + len(vertices)
