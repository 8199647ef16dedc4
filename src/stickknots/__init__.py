"""Stick-knot diagrams from reordered planar vector sets.

Subpackages cover planar geometry and crossing detection (:mod:`.geometry`),
diagram codes and small-knot classification (:mod:`.codes`), height
feasibility of crossing assignments (:mod:`.heights`), the constructive
results and exhaustive searches built on them (:mod:`.constructions`),
triple-crossing resolution (:mod:`.triple`), SVG rendering (:mod:`.render`),
and the command line (:mod:`.cli`).
"""

from __future__ import annotations

from .geometry import (
    EPS_DEFAULT,
    DegenerateDiagramError,
    Diagram,
    InvalidParameterError,
    NonGenericDirectionError,
    Ordering,
    Vec2,
    VectorSet,
    Walk,
    build_walk,
    detect_crossings,
    diagram_from_ordering,
    local_maxima_count,
    polar_sort,
    regular_ngon,
    segment_intersection,
    sign_components_ok,
    unique_sign_component,
)

from .codes import (
    BracketTable,
    CrossingAssignment,
    GaussCode,
    KnotClass,
    LaurentPoly,
    alternating_assignment,
    classify,
    determinant,
    diagram_writhe,
    extract_gauss_code,
    gauss_to_pd,
    jones,
    kauffman_bracket,
    merge_crossingless_runs,
    pd_writhe,
    stick_filter,
    tricolorable,
)
from .heights import (
    HeightCertificate,
    HeightSystem,
    constraints_from_assignment,
    feasible_assignments,
    solve_feasibility,
    verify_certificate,
    vertical_stick_augmentation,
)

__all__ = [
    "BracketTable",
    "CrossingAssignment",
    "GaussCode",
    "HeightCertificate",
    "HeightSystem",
    "KnotClass",
    "LaurentPoly",
    "alternating_assignment",
    "classify",
    "constraints_from_assignment",
    "determinant",
    "diagram_writhe",
    "extract_gauss_code",
    "feasible_assignments",
    "gauss_to_pd",
    "jones",
    "kauffman_bracket",
    "merge_crossingless_runs",
    "pd_writhe",
    "solve_feasibility",
    "stick_filter",
    "tricolorable",
    "verify_certificate",
    "vertical_stick_augmentation",
    "EPS_DEFAULT",
    "DegenerateDiagramError",
    "Diagram",
    "InvalidParameterError",
    "NonGenericDirectionError",
    "Ordering",
    "Vec2",
    "VectorSet",
    "Walk",
    "build_walk",
    "detect_crossings",
    "diagram_from_ordering",
    "local_maxima_count",
    "polar_sort",
    "regular_ngon",
    "segment_intersection",
    "sign_components_ok",
    "unique_sign_component",
]

__version__ = "0.1.0"
