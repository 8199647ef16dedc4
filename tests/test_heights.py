"""Height feasibility: LP solver, certificates, elimination oracle."""

import importlib.util
import math
import random
import re
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ModuleSpec
from importlib.metadata import version
from pathlib import Path

import numpy as np
import pytest

from stickknots.geometry import (
    InvalidParameterError,
    Ordering,
    diagram_from_ordering,
    regular_ngon,
)
from stickknots.codes import CrossingAssignment, alternating_assignment
from stickknots import heights
from stickknots.heights import (
    HeightCertificate,
    HeightSystem,
    UndecidedLPError,
    constraints_from_assignment,
    feasible_assignments,
    height_variable_map,
    solve_feasibility,
    verify_certificate,
    vertical_stick_augmentation,
)
from stickknots.constructions import (
    canonical_ordering_classes,
    search_ngon,
    trefoil_reference_system,
)

from conftest import (
    brute_feasible_assignments,
    exact_height_rows,
    exact_walk_events,
    fm_feasible,
    nbc_region_count,
    near_regular_hexagon,
    random_integer_walk,
    src_env,
    walk_from_integer_vertices,
)
from stickknots.geometry import detect_crossings

PENTAGRAM = Ordering((0, 3, 1, 4, 2))
TREFOIL_7GON = Ordering((0, 1, 3, 5, 6, 2, 4))
FEASIBLE_TREFOIL_7GON = Ordering((0, 2, 4, 1, 6, 3, 5))
HEPTAGRAM_7_3 = Ordering((0, 3, 6, 2, 5, 1, 4))


# ---------------------------------------------------------------------------
# Reference system


def test_reference_system_known_solution_and_slacks():
    system, solution, slacks = trefoil_reference_system()
    cert = HeightCertificate(z=solution, margin=min(slacks))
    res = verify_certificate(system, cert)
    assert res.ok
    got = system.slacks(solution)
    # the worked figures round at 7-9 decimals; agreement far inside the
    # 1e-4 reproduction tolerance is what the coefficients support
    for got_s, want_s in zip(got, slacks):
        assert got_s == pytest.approx(want_s, abs=1e-6)
    assert res.min_slack == pytest.approx(min(slacks), abs=1e-6)


def test_reference_system_is_solvable_both_ways():
    system, _, _ = trefoil_reference_system()
    cert = solve_feasibility(system)
    assert cert is not None
    assert verify_certificate(system, cert).ok
    assert fm_feasible(system)


# ---------------------------------------------------------------------------
# The HiGHS binding

#: What heights.py calls of scipy's private HiGHS binding: members of the
#: model class, then module attributes.
HIGHS_MODEL_CALLS = ("setOptionValue", "addVars", "changeColsCost", "addRow",
                     "deleteRows", "run", "getModelStatus",
                     "modelStatusToString", "getSolution", "getDualRay")
HIGHS_MODULE_NAMES = ("_Highs", "kHighsInf", "HighsModelStatus",
                      "simplex_constants")


def test_highs_binding_provides_what_the_models_call():
    pinned = "; pyproject.toml pins the scipy range whose binding has them"
    try:
        core = heights._highs()
    except ImportError as err:
        pytest.fail(str(err))
    missing = [name for name in HIGHS_MODULE_NAMES if not hasattr(core, name)]
    missing += [f"_Highs.{name}" for name in HIGHS_MODEL_CALLS
                if not hasattr(getattr(core, "_Highs", None), name)]
    assert not missing, (f"scipy {version('scipy')}: "
                         f"scipy.optimize._highspy._core lacks "
                         f"{', '.join(missing)}{pinned}")


def test_missing_highs_binding_names_the_pinned_scipy(monkeypatch, tmp_path):
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    pin = re.search(r'"(scipy[<>=][^"]*)"', pyproject.read_text()).group(1)
    name = "scipy.optimize._highspy._core"
    monkeypatch.delitem(sys.modules, name, raising=False)
    monkeypatch.setattr(
        importlib.util, "find_spec",
        lambda _: ModuleSpec("scipy", None,
                             origin=str(tmp_path / "__init__.py")))
    with pytest.raises(ImportError) as err:
        heights._highs()
    assert str(err.value) == (f"scipy {version('scipy')} has no HiGHS binding "
                              f"{name}; pyproject.toml pins {pin}")
    assert name not in sys.modules
    # an extension file that does not load leaves no module behind
    broken = tmp_path.joinpath("optimize", "_highspy",
                               "_core" + EXTENSION_SUFFIXES[0])
    broken.parent.mkdir(parents=True)
    broken.write_bytes(b"")
    with pytest.raises(ImportError):
        heights._highs()
    assert name not in sys.modules


#: Loads the HiGHS binding and ``scipy.optimize`` in the order of its
#: argument, and prints whether every route to the binding gives one
#: module, with ``linprog``'s status on a small LP.
_BINDING_PROBE = """
import sys
from stickknots import heights
if sys.argv[1] == "highs first":
    first = heights._highs()
import scipy.optimize
import scipy.optimize._highspy._core as imported
from scipy.optimize._highspy import _core
if sys.argv[1] != "highs first":
    first = heights._highs()
res = scipy.optimize.linprog([1, 1], A_ub=[[-1, -1]], b_ub=[-1],
                             method="highs")
print(first is imported is _core is heights._highs()
      is sys.modules["scipy.optimize._highspy._core"], res.status)
"""


@pytest.mark.parametrize("order", ["highs first", "scipy.optimize first"])
def test_one_highs_binding_in_either_import_order(order):
    res = subprocess.run([sys.executable, "-c", _BINDING_PROBE, order],
                         capture_output=True, text=True, env=src_env(),
                         timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["True", "0"]


def test_infeasible_model_reports_a_gordan_ray():
    # {z0 - z1 > 0, z1 - z0 > 0} is infeasible; the model's dual ray is a
    # nonnegative combination of its rows that vanishes (Gordan)
    A = np.array([[1.0, -1.0], [-1.0, 1.0]])
    core = heights._highs()
    model = heights._lp_model(core, A)
    assert heights._solve(core, model, A) is heights._NoHeights.INFEASIBLE
    _, has_ray, y = model.getDualRay()
    assert has_ray
    assert np.all(y >= 0.0) and np.any(y > 0.0)
    assert np.allclose(y @ A, 0.0)


def test_solve_reports_heights_beyond_the_scale_guard():
    # z0 >= 1e3, z1 >= 1e3 z0 and z2 >= 1e4 z1: feasible, but only with
    # heights of about 1e10
    A = np.array([[1e-3, 0.0, 0.0], [-1e3, 1.0, 0.0], [0.0, -1e4, 1.0]])
    core = heights._highs()
    model = heights._lp_model(core, A)
    assert heights._solve(core, model, A) is heights._NoHeights.SCALE_GUARD


def test_solve_reports_heights_without_a_positive_margin():
    # the model's heights (1, 0) meet its own row; on the negated row that
    # the caller checks them against, their slack is -1
    core = heights._highs()
    model = heights._lp_model(core, np.array([[1.0, 0.0]]))
    assert (heights._solve(core, model, np.array([[-1.0, 0.0]]))
            is heights._NoHeights.NO_MARGIN)


# ---------------------------------------------------------------------------
# Homogeneity and certificate checking


def test_certificate_scaling_homogeneity():
    system, solution, _ = trefoil_reference_system()
    base = min(system.slacks(solution))
    for c in (0.5, 2.0, 10.0):
        scaled = tuple(c * z for z in solution)
        cert = HeightCertificate(z=scaled, margin=c * base)
        res = verify_certificate(system, cert)
        assert res.ok
        assert res.min_slack == pytest.approx(c * base)


def test_verify_certificate_rejects_wrong_heights():
    system, solution, _ = trefoil_reference_system()
    bad = HeightCertificate(z=tuple(-z for z in solution), margin=1.0)
    assert not verify_certificate(system, bad).ok


def test_certificate_json_round_trip():
    cert = HeightCertificate(z=(1.0, -2.5, 0.0), margin=0.25)
    a = CrossingAssignment.from_bits(3, 0b101)
    obj = cert.to_json(a)
    assert obj["assignment"] == 0b101
    back = HeightCertificate.from_json(obj)
    assert back == cert
    # the empty system's infinite margin is written as JSON null
    empty = HeightCertificate(z=(0.0, 0.0), margin=math.inf)
    obj = empty.to_json(CrossingAssignment(()))
    assert obj["margin"] is None
    assert HeightCertificate.from_json(obj) == empty


# ---------------------------------------------------------------------------
# Solver vs Fourier-Motzkin elimination oracle


def _random_system(rng: random.Random) -> HeightSystem:
    n_vars = rng.randint(2, 4)
    rows = []
    for _ in range(rng.randint(1, 5)):
        row = [float(rng.randint(-5, 5)) for _ in range(n_vars)]
        if not any(row):
            row[0] = 1.0
        rows.append(row)
    return HeightSystem(np.array(rows))


def test_solver_agrees_with_elimination_on_integer_systems():
    # small integer coefficients are exact as floats, so the LP (with its
    # degenerate-boundary guard) and exact elimination must agree outright
    rng = random.Random(7)
    feasible = infeasible = 0
    for _ in range(300):
        system = _random_system(rng)
        lp = solve_feasibility(system)
        fm = fm_feasible(system)
        assert (lp is not None) == fm
        if fm:
            feasible += 1
            assert verify_certificate(system, lp).ok
        else:
            infeasible += 1
    assert feasible > 100 and infeasible > 20


def test_solver_certificates_imply_elimination_feasibility():
    # on geometric systems with irrational data the implication direction
    # that is sound regardless of rounding: a certificate proves feasibility
    for n, ordering in ((7, FEASIBLE_TREFOIL_7GON), (5, PENTAGRAM)):
        d = diagram_from_ordering(regular_ngon(n), ordering)
        c = d.n_crossings
        for bits in range(1 << c):
            a = CrossingAssignment.from_bits(c, bits)
            system = constraints_from_assignment(d, a)
            cert = solve_feasibility(system)
            if cert is not None:
                assert verify_certificate(system, cert).ok
                assert fm_feasible(system)
            elif not fm_feasible(system):
                pass  # both agree on infeasibility
            # remaining case: boundary-degenerate system; the guard reports
            # it infeasible while rounded-coefficient elimination wobbles


def test_degenerate_alternating_trefoil_has_positive_null_combination():
    # the alternating system of the exact 7-gon trefoil admits heights with
    # all slacks = 0 but none with all slacks > 0: a strictly positive left
    # null vector of the constraint matrix certifies that (Gordan)
    d = diagram_from_ordering(regular_ngon(7), TREFOIL_7GON)
    a = alternating_assignment(d)
    system = constraints_from_assignment(d, a)
    assert solve_feasibility(system) is None
    rows = system.rows
    # one-dimensional left null space with a strictly positive generator
    _, _, vt = np.linalg.svd(rows.T, full_matrices=True)
    lam = vt[-1]
    if lam.sum() < 0:
        lam = -lam
    assert np.max(np.abs(rows.T @ lam)) < 1e-9
    assert np.all(lam > 1e-6)


# ---------------------------------------------------------------------------
# Enumeration and flip symmetry


def test_feasible_assignments_closed_under_total_flip():
    d = diagram_from_ordering(regular_ngon(7), FEASIBLE_TREFOIL_7GON)
    feas = feasible_assignments(d)
    assert feas, "expected feasible assignments for this ordering"
    by_bits = {a.bits: cert for a, cert in feas}
    full = (1 << d.n_crossings) - 1
    for bits, cert in by_bits.items():
        assert (full ^ bits) in by_bits
        flipped_cert = by_bits[full ^ bits]
        assert flipped_cert.z == tuple(-z for z in cert.z)
        system = constraints_from_assignment(
            d, CrossingAssignment.from_bits(d.n_crossings, full ^ bits))
        assert verify_certificate(system, flipped_cert).ok


def _assert_certified(d, feas, split_vertices=frozenset()):
    full = (1 << d.n_crossings) - 1
    by_bits = {a.bits: cert for a, cert in feas}
    for a, cert in feas:
        system = constraints_from_assignment(d, a, split_vertices)
        assert verify_certificate(system, cert).ok
        assert by_bits[full ^ a.bits].z == tuple(-z for z in cert.z)


def test_feasible_assignments_equal_brute_force_on_small_classes():
    # the brute force solves each of the 2^c systems on a fresh model
    checked = 0
    for n in (5, 6, 7, 8):
        vs = regular_ngon(n)
        for ordering, _ in canonical_ordering_classes(n):
            d = diagram_from_ordering(vs, ordering)
            if d.is_degenerate or d.n_crossings > 8:
                continue
            feas = feasible_assignments(d)
            brute = brute_feasible_assignments(d)
            assert [a.bits for a, _ in feas] == [a.bits for a, _ in brute], \
                ordering.perm
            _assert_certified(d, feas)
            checked += 1
    assert checked == 252


def test_feasible_assignments_equal_brute_force_with_split_vertices():
    d = diagram_from_ordering(regular_ngon(5), PENTAGRAM)
    splits = frozenset({0, 1, 2})
    feas = feasible_assignments(d, splits)
    brute = brute_feasible_assignments(d, splits)
    assert [a.bits for a, _ in feas] == [a.bits for a, _ in brute]
    assert alternating_assignment(d).bits in {a.bits for a, _ in feas}
    _assert_certified(d, feas, splits)


def _count_solves(monkeypatch) -> list[tuple[int, int]]:
    """Record (rows the model holds, rows of A) for each ``_solve`` call."""
    solve = heights._solve
    solves = []

    def counting(core, model, A):
        solves.append((model.getNumRow(), len(A)))
        return solve(core, model, A)

    monkeypatch.setattr(heights, "_solve", counting)
    return solves


def test_heptagram_enumeration_solves_few_lps(monkeypatch):
    # the 2^c loop solved one LP per complementary pair: 2^13 = 8,192 here
    d = diagram_from_ordering(regular_ngon(7), HEPTAGRAM_7_3)
    assert d.n_crossings == 14
    solves = _count_solves(monkeypatch)
    feas = feasible_assignments(d)
    assert feas
    # the model holds one row per crossing of the cell being solved: the
    # root cell has one, and each child adds one to its parent's
    assert all(held == rows for held, rows in solves)
    child_solves = [rows for _, rows in solves if rows > 1]
    assert 0 < len(child_solves) <= 300
    _assert_certified(d, feas)


def test_twenty_crossing_diagram_is_not_refused(monkeypatch):
    # no cap on the crossing count: all cells of the 20-crossing 9-gon
    # class, a few seconds on the warm-started model
    d = diagram_from_ordering(regular_ngon(9),
                              Ordering((0, 3, 7, 2, 6, 1, 4, 8, 5)))
    assert not d.is_degenerate
    assert d.n_crossings == 20
    solves = _count_solves(monkeypatch)
    feas = feasible_assignments(d)
    assert len(feas) == 14_728
    assert nbc_region_count(_base_rows(d)) == len(feas)
    assert len(solves) <= 6_000
    _assert_certified(d, feas)


def _base_rows(d):
    return constraints_from_assignment(
        d, CrossingAssignment.from_bits(d.n_crossings, 0)).rows


def test_census_walks_find_every_cell(heptagon_census, octagon_census):
    # each clean class's feasible count, as the walk found it, is the
    # region count of its arrangement, which walks no cell
    checked = 0
    for catalog in (heptagon_census, octagon_census):
        vs = regular_ngon(catalog.n)
        for r in catalog.records:
            if not r.degenerate:
                d = diagram_from_ordering(vs, Ordering(r.ordering))
                assert nbc_region_count(_base_rows(d)) == r.feasible, r
                checked += 1
    assert checked == 36 + 202


def test_walked_cells_are_the_exact_region_count_on_integer_walks():
    # integer walks have exact rational rows, so their region count is
    # exact; 12 of these 25 have exactly dependent rows (fewer regions than
    # rows in general position); the walked half and its total flips
    # number the regions, and the float count agrees
    rng = random.Random(14)
    checked = 0
    while checked < 25:
        verts = random_integer_walk(rng, rng.randint(7, 11))
        d = detect_crossings(walk_from_integer_vertices(verts))
        if (d.is_degenerate or d.walk.n_edges != len(verts)
                or exact_walk_events(verts)[1]
                or not 4 <= d.n_crossings <= 12):
            continue
        exact = nbc_region_count(exact_height_rows(verts), tol=0)
        assert 2 * len(heights.feasible_cells(d)[0]) == exact, verts
        assert nbc_region_count(_base_rows(d)) == exact, verts
        checked += 1


def test_seven_gon_census_solves_few_lps(monkeypatch):
    solves = _count_solves(monkeypatch)
    search_ngon(7)
    assert 0 < len(solves) <= 300


def test_warm_model_decides_like_a_fresh_one(monkeypatch):
    # each LP of the census walk runs on one warm model per diagram; a
    # fresh model of the same signed rows, reduced before its run as
    # solve_feasibility's is, must find heights exactly when it does
    solve = heights._solve
    seen = []

    def spy(core, model, A):
        solved = solve(core, model, A)
        seen.append((A, isinstance(solved, heights._NoHeights)))
        return solved

    monkeypatch.setattr(heights, "_solve", spy)
    search_ngon(7)
    monkeypatch.undo()
    core = heights._highs()
    fresh = [isinstance(heights._solve(core, heights._lp_model(core, A), A),
                        heights._NoHeights) for A, _ in seen]
    assert [none for _, none in seen] == fresh
    assert len(seen) == 233
    assert 0 < sum(fresh) < len(fresh)


def test_feasible_assignments_equal_brute_force_on_integer_walks(
        monkeypatch):
    # integer walks often have exactly dependent rows, where one Gordan
    # certificate rules out later children without an LP; without the
    # certificates the walk must find the same cells with more LPs
    rng = random.Random(3)
    solves = _count_solves(monkeypatch)
    checked = reused = 0
    while checked < 30:
        walk = walk_from_integer_vertices(
            random_integer_walk(rng, rng.randint(5, 9)))
        d = detect_crossings(walk)
        if d.is_degenerate or not 3 <= d.n_crossings <= 8:
            continue
        solves.clear()
        feas = feasible_assignments(d)
        with_certificates = len(solves)
        with monkeypatch.context() as m:
            m.setattr(heights, "_gordan_rows", lambda model, A: None)
            solves.clear()
            plain = feasible_assignments(d)
        brute = brute_feasible_assignments(d)
        assert [a.bits for a, _ in feas] == [a.bits for a, _ in brute]
        assert [a.bits for a, _ in plain] == [a.bits for a, _ in brute]
        _assert_certified(d, feas)
        reused += with_certificates < len(solves)
        checked += 1
    assert reused >= 1


def test_walk_on_a_near_regular_hexagon_reports_only_certified_cells():
    # a fresh model of bits 47, and of its total flip 80, ends with status
    # Unknown; the walk does not raise, and returns the 40 cells that fresh
    # models decide feasible, each with a verified certificate
    d = near_regular_hexagon()
    decided, undecided = [], []
    for bits in range(1 << d.n_crossings):
        system = constraints_from_assignment(
            d, CrossingAssignment.from_bits(d.n_crossings, bits))
        try:
            if solve_feasibility(system) is not None:
                decided.append(bits)
        except UndecidedLPError:
            undecided.append(bits)
            # exactly feasible on the float rows, though the walk, like
            # scipy's linprog, finds no heights: a float verdict on a
            # system at the boundary of feasibility
            assert fm_feasible(system)
    assert undecided == [47, 80]
    feas = feasible_assignments(d)
    assert [a.bits for a, _ in feas] == decided
    assert len(decided) == 40
    _assert_certified(d, feas)


def test_walked_half_is_the_half_with_crossing_0_over():
    d = diagram_from_ordering(regular_ngon(7), HEPTAGRAM_7_3)
    bits, z, margin = heights.feasible_cells(d)
    feas = feasible_assignments(d)
    assert sorted(bits) == [a.bits for a, _ in feas if a.bits & 1]
    assert len(feas) == 2 * len(bits) == 490
    assert z.shape == (len(bits), d.walk.n_edges)
    for b, heights_b, m in zip(bits, z, margin):
        system = constraints_from_assignment(
            d, CrossingAssignment.from_bits(d.n_crossings, b))
        assert min(system.slacks(heights_b)) == pytest.approx(m)
        assert m > 0.0


def _assert_rows_are_signed_base_rows(d, assignments, split_vertices):
    c = d.n_crossings
    base = constraints_from_assignment(
        d, CrossingAssignment((True,) * c), split_vertices).rows
    for a in assignments:
        signs = np.where(a.over_a, 1.0, -1.0)
        got = constraints_from_assignment(d, a, split_vertices).rows
        assert got.tobytes() == (base * signs[:, None]).tobytes()
        assert got.shape == base.shape


def test_assignment_rows_are_signed_base_rows():
    # feasible_assignments flips crossings by negating rows of the
    # all-edge_a-over system; the rows built per assignment must agree
    rng = random.Random(11)
    vs = regular_ngon(7)
    checked = 0
    for ordering, _ in canonical_ordering_classes(7):
        d = diagram_from_ordering(vs, ordering)
        if d.is_degenerate:
            continue
        c = d.n_crossings
        bits = {0, (1 << c) - 1} | {rng.randrange(1 << c) for _ in range(4)}
        _assert_rows_are_signed_base_rows(
            d, [CrossingAssignment.from_bits(c, b) for b in bits], frozenset())
        checked += 1
    assert checked == 36
    d = diagram_from_ordering(regular_ngon(5), PENTAGRAM)
    _assert_rows_are_signed_base_rows(
        d, [CrossingAssignment.from_bits(5, b) for b in range(32)],
        frozenset({0, 1, 2}))


def test_pentagram_alternating_needs_vertex_splits():
    d = diagram_from_ordering(regular_ngon(5), PENTAGRAM)
    a = alternating_assignment(d)
    assert solve_feasibility(constraints_from_assignment(d, a)) is None
    splits = frozenset({0, 1, 2})
    cert = solve_feasibility(constraints_from_assignment(d, a, splits))
    assert cert is not None
    assert verify_certificate(
        constraints_from_assignment(d, a, splits), cert).ok
    assert vertical_stick_augmentation(d, splits) == 8


# ---------------------------------------------------------------------------
# Variable mapping and corner crossings


def test_height_variable_map_splits_vertices():
    d = diagram_from_ordering(regular_ngon(5), PENTAGRAM)
    plain = height_variable_map(d)
    assert plain[(2, "in")] == plain[(2, "out")]
    assert len(set(plain.values())) == 5
    split = height_variable_map(d, frozenset({2}))
    assert split[(2, "in")] != split[(2, "out")]
    assert len(set(split.values())) == 6


def test_corner_crossing_puts_weight_on_the_corner():
    # walk with a crossing exactly at a vertex: parameter 1.0 on the
    # incoming edge concentrates the height constraint on that corner
    verts = [(0, 0), (4, 0), (4, 2), (2, 0), (2, -2), (0, -2)]
    d = detect_crossings(walk_from_integer_vertices(verts))
    assert d.n_crossings == 1
    c = d.crossings[0]
    assert c.t_b == pytest.approx(1.0)
    a = CrossingAssignment.from_bits(1, 1)
    system = constraints_from_assignment(d, a)
    (row,) = system.rows
    var_of = height_variable_map(d)
    corner = var_of[((c.edge_b + 1) % d.walk.n_edges, "in")]
    assert row[corner] == pytest.approx(-1.0)  # the full under weight


def test_split_vertices_outside_the_walk_raise():
    # a split vertex the walk lacks would leave every row unsplit; each
    # entry that takes split vertices refuses it with one message
    d = diagram_from_ordering(regular_ngon(5), PENTAGRAM)
    a = alternating_assignment(d)
    for splits in (frozenset({99, -1}), frozenset({7}), frozenset({0, 5})):
        for call in (lambda: height_variable_map(d, splits),
                     lambda: constraints_from_assignment(d, a, splits),
                     lambda: heights.feasible_cells(d, splits),
                     lambda: feasible_assignments(d, splits),
                     lambda: vertical_stick_augmentation(d, splits)):
            with pytest.raises(InvalidParameterError,
                               match="outside walk of 5 vertices"):
                call()


def test_vertical_stick_augmentation_validates_vertices():
    d = diagram_from_ordering(regular_ngon(5), PENTAGRAM)
    with pytest.raises(InvalidParameterError):
        vertical_stick_augmentation(d, frozenset({9}))


def test_sixty_five_row_system_is_solved():
    # no cap on the number of rows or variables
    system = HeightSystem(np.ones((65, 1)))
    cert = solve_feasibility(system)
    assert cert is not None
    assert verify_certificate(system, cert).ok


def test_empty_system_is_trivially_feasible():
    cert = solve_feasibility(HeightSystem(np.zeros((0, 4))))
    assert cert is not None
    assert cert.margin == math.inf
    assert cert.z == (0.0, 0.0, 0.0, 0.0)
