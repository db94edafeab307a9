"""Exact enumeration of Cauchon diagrams and primitivity via Pfaffians.

Cauchon (Le) diagrams index the torus-invariant prime ideals of quantum
matrices; such a prime is primitive exactly when the skew adjacency matrix
of the diagram's white squares is invertible, i.e. has nonzero Pfaffian.
This package enumerates diagrams exhaustively, decides primitivity with
exact integer arithmetic, and reproduces the known counts, closed formulas
and conjecture scans for small grids.

The public names below load their submodule on first use (PEP 562), so a
command that needs only the census does not pay for the rest at start-up.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

#: submodule -> the public names it defines
_EXPORTS = {
    "backend": ("active_backend",),
    "census": ("CensusRecord", "run_census", "run_censuses"),
    "checks": (
        "check_formula",
        "check_relation_eqc",
        "formula_value",
        "proportion",
        "scan_power_of_two",
    ),
    "criterion": (
        "HasBlackColumnError",
        "fully_white_columns",
        "primitive_1xn",
        "primitive_2xn_fast",
    ),
    "diagram": (
        "BadCharacterError",
        "CauchonDiagram",
        "GridError",
        "NonRectangularError",
        "NotCauchonError",
        "count_diagrams",
        "count_diagrams_no_black_column",
        "enumerate_diagrams",
        "format_grid",
        "parse_grid",
        "strip_black_columns",
        "transpose",
        "validate",
    ),
    "matching": (
        "MalformedMatchingError",
        "Matching",
        "enumerate_matchings",
        "inversions",
        "inversions_between",
        "matching_sign",
        "pfaffian_by_matchings",
        "vertical_edge_sums",
        "white_edges",
    ),
    "pfaffian": (
        "SkewAdjacency",
        "determinant",
        "is_primitive",
        "nullity",
        "pfaffian",
        "rank",
        "skew_adjacency",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_SOURCE)]


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(type(sys)):
    """The package module: a submodule never replaces a public name.

    Importing ``cauchon.pfaffian`` binds the submodule as the package's
    ``pfaffian`` attribute; the public name is the function of that name,
    whichever is imported first.
    """

    def __setattr__(self, name: str, value) -> None:
        if name not in _SOURCE or not isinstance(value, type(sys)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
