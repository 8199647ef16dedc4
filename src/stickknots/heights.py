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
2018) through the binding that scipy ships.  The binding loads at the
first LP (:func:`_highs`), not with this module, and from its extension
file alone: rendering or classifying a diagram solves nothing, and the
usual import statement would first run ``scipy.optimize``'s package,
which takes about a hundred times the extension's load time and fifteen
times its memory.

Flipping a crossing negates its row, so the feasible assignments of one
diagram are the cells of a central hyperplane arrangement, one hyperplane
per crossing.  :func:`feasible_cells` walks the tree of those cells one
crossing per level, in the manner of reverse search (Avis & Fukuda,
1996), with the whole level's witness heights in one matrix.  A ratio
test, run on that matrix in array expressions, moves each parent's
witness along the child's row, halfway from where that row turns
positive to where a parent row would stop being positive, and decides
most feasible children without an LP.  The rest go one by one to one
warm-started model per diagram.  An LP that ends infeasible leaves a
Gordan certificate, a nonnegative combination of rows that vanishes
(HiGHS's dual ray), and the certificate rules out every later child that
holds the same signed rows.  Its cost follows the number of feasible
assignments rather than 2^c.  The walk covers the half with crossing 0's
``edge_a`` over; :func:`feasible_assignments` adds the total flips.
:func:`solve_feasibility` answers a single system with a fresh model.
"""

from __future__ import annotations

import enum
import importlib.util
import math
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .geometry import Diagram, InvalidParameterError
from .codes import CrossingAssignment

if TYPE_CHECKING:
    from types import ModuleType

    from scipy.optimize._highspy import _core

__all__ = [
    "HeightSystem",
    "HeightCertificate",
    "VerifyResult",
    "UndecidedLPError",
    "constraints_from_assignment",
    "solve_feasibility",
    "verify_certificate",
    "feasible_assignments",
    "feasible_cells",
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
    """Heights satisfying every constraint with slack >= margin > 0.

    The empty system's margin is infinite; JSON has no such number, so it
    is written as null.
    """

    z: tuple[float, ...]
    margin: float

    def to_json(self, assignment: Optional[CrossingAssignment] = None) -> dict:
        obj = {"z": list(self.z),
               "margin": self.margin if math.isfinite(self.margin) else None}
        if assignment is not None:
            obj["assignment"] = assignment.bits
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "HeightCertificate":
        margin = obj["margin"]
        return cls(z=tuple(float(v) for v in obj["z"]),
                   margin=math.inf if margin is None else float(margin))


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    min_slack: float


class UndecidedLPError(RuntimeError):
    """HiGHS ended an LP neither optimal nor infeasible, so the height
    system it models is decided neither way."""


def _check_vertices(d: Diagram, vertices: frozenset[int]) -> int:
    """The walk's vertex count, after checking that it holds every vertex."""
    m = d.walk.n_edges
    for v in vertices:
        if not 0 <= v < m:
            raise InvalidParameterError(f"vertex {v} outside walk of {m} vertices")
    return m


def height_variable_map(d: Diagram,
                        split_vertices: frozenset[int] = frozenset()
                        ) -> dict[tuple[int, str], int]:
    """Map (vertex, "in"|"out") to a height-variable index.

    Unsplit vertices use one shared variable; a split vertex (one carrying a
    vertical stick) gets independent variables for the strand entering and
    the strand leaving, since the stick can bridge any height difference.
    A split vertex outside the walk raises.
    """
    m = _check_vertices(d, split_vertices)
    mapping: dict[tuple[int, str], int] = {}
    next_var = 0
    for v in range(m):
        mapping[(v, "in")] = next_var
        next_var += v in split_vertices
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


def _accepted_margin(z: np.ndarray, slacks: np.ndarray) -> np.ndarray:
    """The smallest of the slacks of heights z where the heights pass as a
    certificate, and 0.0 where they do not: every |z_i| within
    MAX_CERTIFICATE_SCALE and every slack strictly positive.  z may hold
    one set of heights per row, with their slacks row by row."""
    margin = slacks.min(axis=-1)
    passes = abs(z).max(axis=-1, initial=0.0) <= MAX_CERTIFICATE_SCALE
    return np.where(passes & (margin > 0.0), margin, 0.0)


def _row_entries(r: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """``addRow``'s count, column indices and values for the row
    ``r . (p - q)`` over the columns p, q."""
    both = np.concatenate((r, -r))
    index = np.flatnonzero(both).astype(np.int32)
    return len(index), index, both[index]


def _highs() -> ModuleType:
    """scipy's HiGHS binding, loaded by the first caller that builds a
    model from its extension file alone, so ``scipy.optimize``'s
    ``__init__`` never runs.  It is registered under its own name, so an
    ``import scipy.optimize`` before or after shares the one module."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    path = scipy and Path(scipy.origin).parent.joinpath(
        "optimize", "_highspy", "_core" + EXTENSION_SUFFIXES[0])
    if not (path and path.is_file()):
        from importlib.metadata import version
        raise ImportError(f"scipy {version('scipy')} has no HiGHS binding "
                          f"{name}; pyproject.toml pins scipy>=1.15,<1.18")
    spec = importlib.util.spec_from_file_location(name, path)
    core = sys.modules[name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(core)
    except BaseException:
        del sys.modules[name]
        raise
    return core


def _lp_model(core: ModuleType, A: np.ndarray) -> _core._Highs:
    """The HiGHS model of ``A z >= 1``, solved by the dual simplex.

    Columns p, q >= 0 with z = p - q and cost sum(p + q); one row
    ``r . (p - q) >= 1`` per row r of A, in order.  HiGHS reduces the LP
    before a run only when the model holds no basis, so a model solved
    once and one that changes rows between warm runs share one setting.
    ``core`` is the binding, from :func:`_highs`.
    """
    n = A.shape[1]
    model = core._Highs()
    model.setOptionValue("output_flag", False)
    model.setOptionValue("simplex_strategy", core.simplex_constants
                         .SimplexStrategy.kSimplexStrategyDual)
    model.addVars(2 * n, np.zeros(2 * n), np.full(2 * n, core.kHighsInf))
    model.changeColsCost(2 * n, np.arange(2 * n, dtype=np.int32),
                         np.ones(2 * n))
    for r in A:
        model.addRow(1.0, core.kHighsInf, *_row_entries(r))
    return model


class _NoHeights(enum.Enum):
    """Why :func:`_solve` returned no heights."""

    INFEASIBLE = "infeasible"  # HiGHS proved it; getDualRay holds a ray
    SCALE_GUARD = "scale guard"  # heights beyond MAX_CERTIFICATE_SCALE
    NO_MARGIN = "non-positive margin"  # some slack on A is not positive


def _solve(core: ModuleType, model: _core._Highs,
           A: np.ndarray) -> tuple[np.ndarray, float] | _NoHeights:
    """Run the model of A's rows: its heights and their margin on A, or
    why there are none: the model is infeasible, or the heights fail
    :func:`_accepted_margin` by their scale or by a slack.  Any other
    status of the run raises :class:`UndecidedLPError`."""
    model.run()
    status = model.getModelStatus()
    if status == core.HighsModelStatus.kInfeasible:
        return _NoHeights.INFEASIBLE
    if status != core.HighsModelStatus.kOptimal:
        raise UndecidedLPError("linear program did not converge: "
                               + model.modelStatusToString(status))
    x = np.array(model.getSolution().col_value)
    z = x[:A.shape[1]] - x[A.shape[1]:]
    # Numerical safety net; HiGHS guarantees slacks >= 1 - tiny.
    margin = float(_accepted_margin(z, A @ z))
    if margin > 0.0:
        return z, margin
    if float(np.max(np.abs(z))) > MAX_CERTIFICATE_SCALE:
        return _NoHeights.SCALE_GUARD
    return _NoHeights.NO_MARGIN


def _certificate(z: np.ndarray, margin: float) -> HeightCertificate:
    return HeightCertificate(z=tuple(float(x) for x in z),
                             margin=float(margin))


def solve_feasibility(sys: HeightSystem) -> Optional[HeightCertificate]:
    """Find heights satisfying every strict inequality, or None.

    Homogeneity makes strictness exact: the system has a solution with all
    slacks > 0 iff it has one with all slacks >= 1.  The latter is one
    fresh HiGHS model (:func:`_lp_model`, reduced as it has no basis)
    over the split z = p - q, minimizing sum(p + q) for a deterministic,
    small certificate.  For a whole diagram's assignments,
    :func:`feasible_cells` reuses one model instead.
    """
    if not len(sys.rows):
        return HeightCertificate(z=(0.0,) * sys.n_vars, margin=math.inf)
    # Variables that appear in no constraint are free; solve over the active
    # ones only and report zero heights for the rest.  The C-contiguous copy
    # fixes the summation order of A @ z.
    active = np.flatnonzero(np.any(sys.rows != 0.0, axis=0))
    A = np.ascontiguousarray(sys.rows[:, active])
    core = _highs()
    solved = _solve(core, _lp_model(core, A), A)
    if isinstance(solved, _NoHeights):
        return None
    z = np.zeros(sys.n_vars)
    z[active] = solved[0]
    return _certificate(z, solved[1])


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


def feasible_cells(d: Diagram,
                   split_vertices: frozenset[int] = frozenset()
                   ) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The feasible assignments with crossing 0's ``edge_a`` over: their
    bits, witness heights (one row each, one column per height variable)
    and margins.  The other half are their total flips, with negated
    heights; a diagram without crossings has its one cell.

    Flipping crossing k negates row r_k of the system with every ``edge_a``
    over, so the feasible assignments are the cells of the central
    arrangement {r_k . z = 0}.  A cell on crossings 0..k-1 has two children,
    one on each side of r_k . z = 0, and the cells form a tree that is
    walked one crossing per level: level k holds the witness heights of
    every cell on crossings 0..k-1, margin about 1, as one matrix, and a
    child is decided in the first of three ways that applies.

    - A ratio test, run for the whole level in array expressions.  Moving
      the parent's witness along s r_k (s = +-1 for the child's side)
      changes the parent's slacks by t s (S r_k) and the new row's by
      t |r_k|^2.  The new row turns positive past
      t0 = max(0, -s r_k.z / |r_k|^2), and the parent's rows stay positive
      below the least slack_j / -s (S r_k)_j over the rows that shrink.
      When t0 lies below that limit, the midpoint step, rescaled to margin
      1, is the child's witness if it passes :func:`_accepted_margin`, the
      same acceptance as :func:`solve_feasibility`'s.  The root is the
      empty cell at z = 0, whose step is r_0 / |r_0|^2.
    - A reused certificate.  The children left open are taken in order of
      their parents, side -1 first.  When a child's LP ends infeasible, the
      dual ray of its model is a Gordan certificate on some of its rows J
      (:func:`_gordan_rows`).  A later child on the same side of the same
      r_k whose path agrees with it on J holds the same signed rows, so the
      same certificate rules it out, and the model is not touched.
    - Otherwise one HiGHS model per diagram (:func:`_lp_model`) is
      brought to the child's signed rows, deleting the rows from where its
      path first differs and adding the child's, and run again from the
      basis of its last run; HiGHS reduces only the first run's LP.
    """
    c = d.n_crossings
    base = constraints_from_assignment(
        d, CrossingAssignment.from_bits(c, (1 << c) - 1), split_vertices)
    active = np.flatnonzero(np.any(base.rows != 0.0, axis=0))
    R = np.ascontiguousarray(base.rows[:, active])
    G = R @ R.T  # G[k, j] = r_k . r_j
    model = None  # built at the first LP; most small diagrams need none
    # the level: each cell's bits, witness heights, margin and row signs
    bits, Z, M = [0], np.zeros((1, len(active))), [math.inf]
    S = np.ones((1, c), np.int8)
    for k in range(c):
        rr, Rk = G[k, k], R[:k + 1]
        # child 2i + b of cell i lies on side s = 2b - 1 of r_k; crossing
        # 0 is walked on side +1 only
        child = np.arange(0 if k else 1, 2 * len(Z))
        Z, S = Z[child >> 1], S[child >> 1]
        S[:, k] = sign = np.where(child & 1, 1.0, -1.0)
        Sk = S[:, :k + 1]
        # the child's slacks at the parent's witness, and how fast each
        # falls along s r_k: row j < k at -s (S r_k)_j, row k at -|r_k|^2
        slack = Z @ Rk.T * Sk
        fall = Sk * -sign[:, None] * G[k, :k + 1]
        # row j < k stays positive up to a step of slack_j / fall_j
        rate = (fall[:, :k] / slack[:, :k]).max(axis=1, initial=0.0)
        t_max = np.divide(1.0, rate, out=np.full(len(Z), math.inf),
                          where=rate > 0.0)
        t0 = np.maximum(0.0, -slack[:, k] / rr)
        # with no parent row falling, go one unit of slack past t0
        t = np.where(t_max == math.inf, t0 + 1.0 / rr, 0.5 * (t0 + t_max))
        low = (slack - t[:, None] * fall).min(axis=1)
        step = (t0 < t_max) & (low > 0.0)
        # the step, rescaled to margin about 1; children without one are
        # left to the LP below
        Z = (Z + (sign * t)[:, None] * R[k]) / np.where(
            step, low, 1.0)[:, None]
        M = _accepted_margin(Z, Z @ Rk.T * Sk)
        found = step & (M > 0.0)
        # by bit: a Gordan certificate's row mask over crossings 0..k-1,
        # mapped to the paths' bits on it that it rules out
        ruled_out: tuple[dict[int, set[int]], ...] = ({}, {})
        for i in np.flatnonzero(~found).tolist():
            bit = int(child[i]) & 1
            path = bits[child[i] >> 1] | bit << k
            if any(path & mask in seen
                   for mask, seen in ruled_out[bit].items()):
                continue
            if model is None:
                core = _highs()
                model = _lp_model(core, R[:0])
                held, held_len = 0, 0  # the path whose rows the model holds
                # addRow arguments of each crossing's row, by bit: 0 negates it
                entries = [(_row_entries(-r), _row_entries(r)) for r in R]
            diff = (held ^ path) & ((1 << held_len) - 1)
            keep = (diff & -diff).bit_length() - 1 if diff else held_len
            if keep < held_len:
                model.deleteRows(held_len - keep, np.arange(
                    keep, held_len, dtype=np.int32))
            for j in range(keep, k + 1):
                model.addRow(1.0, core.kHighsInf, *entries[j][path >> j & 1])
            held, held_len = path, k + 1
            A = Rk * S[i, :k + 1, None]
            solved = _solve(core, model, A)
            if solved is _NoHeights.INFEASIBLE:
                rows = _gordan_rows(model, A)
                if rows is not None:
                    mask = sum(1 << int(j) for j in rows[:-1])
                    ruled_out[bit].setdefault(mask, set()).add(path & mask)
            elif not isinstance(solved, _NoHeights):
                Z[i], M[i], found[i] = solved[0], solved[1], True
        Z, M, S, child = Z[found], M[found], S[found], child[found]
        bits = [bits[i >> 1] | (i & 1) << k for i in child.tolist()]
    heights = np.zeros((len(bits), base.n_vars))
    heights[:, active] = Z
    return bits, heights, np.asarray(M, dtype=float)


def feasible_assignments(d: Diagram,
                         split_vertices: frozenset[int] = frozenset()
                         ) -> list[tuple[CrossingAssignment, HeightCertificate]]:
    """All over/under assignments realizable by heights, with certificates:
    the cells :func:`feasible_cells` walks and their total flips, whose
    heights are exactly negated, in ascending bits."""
    bits, Z, M = feasible_cells(d, split_vertices)
    c = d.n_crossings
    if c:
        bits += [((1 << c) - 1) ^ b for b in bits]
        Z, M = np.vstack((Z, 0.0 - Z)), np.concatenate((M, M))
    return [(CrossingAssignment.from_bits(c, bits[i]),
             _certificate(Z[i], M[i]))
            for i in sorted(range(len(bits)), key=bits.__getitem__)]


def vertical_stick_augmentation(d: Diagram, vertices: frozenset[int]) -> int:
    """Stick count in 3-space after adding a vertical stick at each vertex.

    A vertical stick occupies a single planar point, contributes one stick,
    and decouples the heights of the strands meeting at that vertex (the
    split handled by :func:`height_variable_map`).
    """
    return _check_vertices(d, vertices) + len(vertices)
