"""Exact enumeration of Cauchon diagrams and primitivity via Pfaffians.

Cauchon (Le) diagrams index the torus-invariant prime ideals of quantum
matrices; such a prime is primitive exactly when the skew adjacency matrix
of the diagram's white squares is invertible, i.e. has nonzero Pfaffian.
This package enumerates diagrams exhaustively, decides primitivity with
exact integer arithmetic, and reproduces the known counts, closed formulas
and conjecture scans for small grids.
"""

from .backend import active_backend
from .census import (
    CensusRecord,
    check_formula,
    check_relation_eqc,
    formula_value,
    proportion,
    run_census,
    scan_power_of_two,
)
from .criterion import (
    HasBlackColumnError,
    TwoRowStats,
    primitive_1xn,
    primitive_2xn_fast,
    two_row_stats,
)
from .diagram import (
    BadCharacterError,
    CauchonDiagram,
    GridError,
    LabeledCauchonDiagram,
    NonRectangularError,
    NotCauchonError,
    canonical_labels,
    count_diagrams,
    count_diagrams_no_black_column,
    enumerate_diagrams,
    format_grid,
    parse_grid,
    strip_black_columns,
    transpose,
    validate,
    with_labels,
)
from .matching import (
    MalformedMatchingError,
    Matching,
    enumerate_matchings,
    inversions,
    inversions_between,
    matching_sign,
    pfaffian_by_matchings,
    vertical_edge_sums,
    white_edges,
)
from .pfaffian import (
    SkewAdjacency,
    determinant,
    is_primitive,
    nullity,
    pfaffian,
    rank,
    skew_adjacency,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "active_backend",
    "BadCharacterError",
    "CauchonDiagram",
    "CensusRecord",
    "GridError",
    "HasBlackColumnError",
    "LabeledCauchonDiagram",
    "MalformedMatchingError",
    "Matching",
    "NonRectangularError",
    "NotCauchonError",
    "SkewAdjacency",
    "TwoRowStats",
    "canonical_labels",
    "check_formula",
    "check_relation_eqc",
    "count_diagrams",
    "count_diagrams_no_black_column",
    "determinant",
    "enumerate_diagrams",
    "enumerate_matchings",
    "format_grid",
    "formula_value",
    "inversions",
    "inversions_between",
    "is_primitive",
    "matching_sign",
    "nullity",
    "parse_grid",
    "pfaffian",
    "pfaffian_by_matchings",
    "primitive_1xn",
    "primitive_2xn_fast",
    "proportion",
    "rank",
    "run_census",
    "scan_power_of_two",
    "skew_adjacency",
    "strip_black_columns",
    "transpose",
    "two_row_stats",
    "validate",
    "vertical_edge_sums",
    "white_edges",
    "with_labels",
]
