"""Height feasibility of crossing assignments.

An over/under choice at every crossing of a planar diagram is realizable by
straight sticks in 3-space exactly when the strict linear system on vertex
heights is feasible: at each crossing, the over edge's interpolated height
must exceed the under edge's.  A :class:`HeightSystem` is that system's
matrix, one row per crossing and one column per height variable, and asks
for ``rows @ z > 0``.  The system is homogeneous, so feasibility is scale
invariant and "all slacks > 0" can be normalized to "all slacks >= 1";
that reformulation is a linear program, built by one function
(:func:`_lp_model`) as a model of the HiGHS dual simplex (Huangfu & Hall,
2018) through the binding that scipy ships.

Flipping a crossing negates its row, so the feasible assignments of one
diagram are the cells of a central hyperplane arrangement, one hyperplane
per crossing.  :func:`feasible_assignments` walks the tree of those cells
depth first, one crossing per level, in the manner of reverse search
(Avis & Fukuda, 1996).  One model per diagram holds the rows of the
current path, and most children need no LP.  A ratio test moves the
parent's witness heights along the child's row, halfway from where that
row turns positive to where a parent row would stop being positive,
which decides most feasible children.  An LP that ends infeasible leaves
a Gordan certificate, a nonnegative combination of rows that vanishes
(HiGHS's dual ray), and the certificate rules out every later child that
holds the same signed rows.  The remaining children are solved,
warm-started from the last basis.  Its cost follows the number of
feasible assignments rather than 2^c.
:func:`solve_feasibility` answers a single system with a fresh model.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize._highspy import _core

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


def _row_entries(r: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """``addRow``'s count, column indices and values for the row
    ``r . (p - q)`` over the columns p, q."""
    both = np.concatenate((r, -r))
    index = np.flatnonzero(both).astype(np.int32)
    return len(index), index, both[index]


def _lp_model(A: np.ndarray, presolve: bool) -> _core._Highs:
    """The HiGHS model of ``A z >= 1``, solved by the dual simplex.

    Columns p, q >= 0 with z = p - q and cost sum(p + q); one row
    ``r . (p - q) >= 1`` per row r of A, in order.  Presolve pays for a
    model solved once; a model that grows and shrinks by rows between
    runs goes without, so each run starts from the basis of the last.
    """
    n = A.shape[1]
    model = _core._Highs()
    model.setOptionValue("output_flag", False)
    model.setOptionValue("presolve", "on" if presolve else "off")
    model.setOptionValue("simplex_strategy", _core.simplex_constants
                         .SimplexStrategy.kSimplexStrategyDual)
    model.addVars(2 * n, np.zeros(2 * n), np.full(2 * n, _core.kHighsInf))
    model.changeColsCost(2 * n, np.arange(2 * n, dtype=np.int32),
                         np.ones(2 * n))
    for r in A:
        model.addRow(1.0, _core.kHighsInf, *_row_entries(r))
    return model


class _NoHeights(enum.Enum):
    """Why :func:`_solve` returned no heights."""

    INFEASIBLE = "infeasible"  # HiGHS proved it; getDualRay holds a ray
    SCALE_GUARD = "scale guard"  # heights beyond MAX_CERTIFICATE_SCALE
    NO_MARGIN = "non-positive margin"  # some slack on A is not positive


def _solve(model: _core._Highs,
           A: np.ndarray) -> tuple[np.ndarray, float] | _NoHeights:
    """Run the model of A's rows: its heights and their margin on A, or
    why there are none: the model is infeasible, or the heights fail
    :func:`_accepted_margin` by their scale or by a slack."""
    model.run()
    status = model.getModelStatus()
    if status == _core.HighsModelStatus.kInfeasible:
        return _NoHeights.INFEASIBLE
    if status != _core.HighsModelStatus.kOptimal:
        raise RuntimeError("linear program did not converge: "
                           + model.modelStatusToString(status))
    x = np.array(model.getSolution().col_value)
    z = x[:A.shape[1]] - x[A.shape[1]:]
    margin = _accepted_margin(A, z)
    if margin is not None:
        return z, margin
    if float(np.max(np.abs(z))) > MAX_CERTIFICATE_SCALE:
        return _NoHeights.SCALE_GUARD
    return _NoHeights.NO_MARGIN


def _certificate(n_vars: int, active: np.ndarray, z_active: np.ndarray,
                 margin: float) -> HeightCertificate:
    """Heights z_active on the active variables, zero on the rest."""
    z = np.zeros(n_vars)
    z[active] = z_active
    return HeightCertificate(z=tuple(float(x) for x in z), margin=margin)


def solve_feasibility(sys: HeightSystem) -> Optional[HeightCertificate]:
    """Find heights satisfying every strict inequality, or None.

    Homogeneity makes strictness exact: the system has a solution with all
    slacks > 0 iff it has one with all slacks >= 1.  The latter is one
    fresh HiGHS model (:func:`_lp_model`, presolve on, dual simplex) over
    the split z = p - q, minimizing sum(p + q) for a deterministic, small
    certificate.  For a whole diagram's assignments,
    :func:`feasible_assignments` reuses one model instead.
    """
    if not len(sys.rows):
        return HeightCertificate(z=(0.0,) * sys.n_vars, margin=math.inf)
    # Variables that appear in no constraint are free; solve over the active
    # ones only and report zero heights for the rest.  The C-contiguous copy
    # fixes the summation order of A @ z.
    active = np.flatnonzero(np.any(sys.rows != 0.0, axis=0))
    A = np.ascontiguousarray(sys.rows[:, active])
    solved = _solve(_lp_model(A, presolve=True), A)
    if isinstance(solved, _NoHeights):
        return None
    return _certificate(sys.n_vars, active, *solved)


def verify_certificate(sys: HeightSystem,
                       cert: HeightCertificate) -> VerifyResult:
    """Recompute every slack; valid iff all are strictly positive."""
    slacks = sys.slacks(cert.z)
    if not slacks:
        return VerifyResult(ok=True, min_slack=math.inf)
    return VerifyResult(ok=all(s > 0.0 for s in slacks),
                        min_slack=min(slacks))


def _gordan_rows(model: _core._Highs, A: np.ndarray) -> Optional[np.ndarray]:
    """The rows of A that the infeasible model's dual ray combines, or None
    when the ray does not pass as a Gordan certificate.

    The ray y is kept on the rows J where it exceeds 1e-9 of its largest
    entry, and on the last row; entries left out, rounding noise of either
    sign among them, play no part.  It passes when y_J >= 0 and
    |y_J^T A_J|_1 is below sum(y_J) / (2 MAX_CERTIFICATE_SCALE).  Heights z
    with every slack on A_J at least 1/2 would give sum(y_J) / 2 <=
    y_J^T A_J z <= |y_J^T A_J|_1 max|z|, so they would have to exceed the
    scale guard: no heights that :func:`_accepted_margin` accepts, at the
    walk's margin of about 1, satisfy the rows J.
    """
    _, has_ray, y = model.getDualRay()
    y = np.asarray(y)
    if not has_ray or not float(np.max(y)) > 0.0:
        return None
    keep = y > 1e-9 * float(np.max(y))
    keep[-1] = True
    rows = np.flatnonzero(keep)
    y = y[rows]
    residual = float(np.sum(np.abs(y @ A[rows])))
    if y[-1] < 0.0 or 2.0 * MAX_CERTIFICATE_SCALE * residual >= np.sum(y):
        return None
    return rows


def feasible_assignments(d: Diagram,
                         split_vertices: frozenset[int] = frozenset()
                         ) -> list[tuple[CrossingAssignment, HeightCertificate]]:
    """All over/under assignments realizable by heights, with certificates.

    Flipping crossing k negates row r_k of the system with every ``edge_a``
    over, so the feasible assignments are the cells of the central
    arrangement {r_k . z = 0}.  A cell on crossings 0..k-1 has two children,
    one on each side of r_k . z = 0, and the cells form a tree that is
    walked depth first over one HiGHS model (:func:`_lp_model`, presolve
    off) holding the signed rows of the current path: entering a child
    adds its row, leaving it deletes the row.  Each cell keeps witness
    heights z with margin about 1, and a child is decided in the first of
    three ways that applies.

    - A ratio test.  Moving the parent's witness along s r_k (s = +-1 for
      the child's side) changes the parent's slacks by t s (S r_k) and the
      new row's by t |r_k|^2.  The new row turns positive past
      t0 = max(0, -s r_k.z / |r_k|^2), and the parent's rows stay positive
      below the least slack_j / -s (S r_k)_j over the rows that shrink.
      When t0 lies below that limit, the midpoint step, rescaled to margin
      1, is the child's witness if it passes :func:`_accepted_margin`, the
      same acceptance as :func:`solve_feasibility`'s.  The root starts
      from r_0 / |r_0|^2.
    - A reused certificate.  When a child's LP ends infeasible, the dual
      ray of its model is a Gordan certificate on some of its rows J
      (:func:`_gordan_rows`).  A later child on the same side of the same
      r_k whose path agrees with it on J holds the same signed rows, so the
      same certificate rules it out, and the model is not touched.
    - Otherwise the child's row is added and the model is run again,
      warm-started from the basis of its last run, so each LP costs a few
      pivots.

    Crossing 0 is fixed with ``edge_a`` over, and the total flips are the
    antipodal cells, with exactly negated heights.  Results are in
    ascending bits.
    """
    d.require_clean()
    c = d.n_crossings
    base = constraints_from_assignment(
        d, CrossingAssignment((True,) * c), split_vertices)
    if c == 0:
        return [(CrossingAssignment(()), solve_feasibility(base))]
    active = np.flatnonzero(np.any(base.rows != 0.0, axis=0))
    R = np.ascontiguousarray(base.rows[:, active])
    norms = [float(r @ r) for r in R]
    # addRow arguments of each crossing's row, by bit: 0 negates it
    entries = [(_row_entries(-r), _row_entries(r)) for r in R]
    # the signed rows of the current path: S[:k + 1] is a cell's system
    S = R.copy()
    model = _lp_model(R[:1], presolve=False)
    # by crossing k and bit: a Gordan certificate's row mask over 0..k-1,
    # mapped to the paths' bits on it that it rules out
    ruled_out: list[tuple[dict[int, set[int]], ...]] = [
        ({}, {}) for _ in range(c)]
    cells = []  # (bits, witness heights, margin) of the full cells found

    def descend(k: int, bits: int, z: np.ndarray, margin: float) -> None:
        if k == c:
            cells.append((bits, z, margin))
            return
        r, rr = R[k], norms[k]
        slack = S[:k] @ z
        g = S[:k] @ r
        v = float(r @ z)
        # a step t along -r_k (bit 0) keeps row j positive below
        # slack_j / g_j where g_j > 0, and along +r_k (bit 1) below
        # slack_j / -g_j where g_j < 0
        rate = g / slack
        fall, rise = float(rate.max(initial=0.0)), float(rate.min(initial=0.0))
        limits = (1.0 / fall if fall > 0.0 else math.inf,
                  -1.0 / rise if rise < 0.0 else math.inf)
        for bit in (0, 1):
            sign = 2.0 * bit - 1.0
            np.multiply(r, sign, out=S[k])
            A = S[:k + 1]
            t0, t_max = max(0.0, -sign * v / rr), limits[bit]
            witness = None
            if t0 < t_max:
                # with no parent row shrinking, go one unit of slack past t0
                t = t0 + 1.0 / rr if t_max == math.inf else 0.5 * (t0 + t_max)
                low = min(float((slack + sign * t * g).min()),
                          sign * v + t * rr)
                if low > 0.0:
                    w = (z + sign * t * r) / low
                    m = _accepted_margin(A, w)
                    if m is not None:
                        witness = (w, m)
            if witness is None and any(
                    bits & mask in seen
                    for mask, seen in ruled_out[k][bit].items()):
                continue
            model.addRow(1.0, _core.kHighsInf, *entries[k][bit])
            if witness is None:
                witness = _solve(model, A)
                if witness is _NoHeights.INFEASIBLE:
                    rows = _gordan_rows(model, A)
                    if rows is not None:
                        mask = sum(1 << int(j) for j in rows[:-1])
                        ruled_out[k][bit].setdefault(mask, set()).add(
                            bits & mask)
            if not isinstance(witness, _NoHeights):
                descend(k + 1, bits | bit << k, *witness)
            model.deleteRows(1, np.array([k], dtype=np.int32))

    z0 = R[0] / norms[0]
    m0 = _accepted_margin(R[:1], z0)
    root = _solve(model, R[:1]) if m0 is None else (z0, m0)
    if not isinstance(root, _NoHeights):
        descend(1, 1, *root)
    full = (1 << c) - 1
    found = sorted(cells + [(full ^ bits, -z, m) for bits, z, m in cells],
                   key=lambda cell: cell[0])
    return [(CrossingAssignment.from_bits(c, bits),
             _certificate(base.n_vars, active, z, m))
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
