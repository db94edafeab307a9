"""Exact linear algebra on the skew adjacency matrix of a diagram.

``A_C`` is the d x d skew-symmetric matrix over the white squares: entry
(i, j) is +1 when square i is strictly above square j in the same column or
strictly left of it in the same row, -1 in the mirrored cases, 0 otherwise.
A torus-invariant prime is primitive exactly when this matrix is invertible,
i.e. when its Pfaffian is nonzero; the nullity counts the central Laurent
variables of the associated quantum torus (for skew-symmetric matrices the
kernel of the transpose has the same dimension, so a single nullity is
exposed).

The nullity, the rank and primitivity need no matrix. By Bell, Casteels
and Launois ("Enumeration of H-strata in quantum matrices with respect to
dimension", J. Combin. Theory Ser. A 119, 2012), the nullity is the number
of even cycles of the diagram's toric permutation; ``nullity`` folds the
diagram's rows into that permutation with the census's own transfer step,
so census and single queries share one nullity. The exact Schur kernel in
``backend`` serves only ``pfaffian``, ``classify`` and the oracles;
``determinant`` is ``backend``'s Bareiss elimination, which shares no code
with it. All arithmetic is exact, never floating point.
"""

from collections import namedtuple

from . import backend, census
from .diagram import CauchonDiagram, white_coordinates

__all__ = [
    "SkewAdjacency",
    "skew_adjacency",
    "classify",
    "pfaffian",
    "determinant",
    "nullity",
    "rank",
    "is_primitive",
]


class SkewAdjacency(namedtuple("SkewAdjacency", "d entries")):
    """Skew-symmetric 0/+-1 adjacency matrix of the white-square graph."""

    __slots__ = ()

    def __new__(cls, d: int, entries: tuple[tuple[int, ...], ...]):
        entries = tuple(map(tuple, entries))
        if len(entries) != d:
            raise ValueError(f"expected {d} rows, got {len(entries)}")
        for i, row in enumerate(entries):
            if len(row) != d:
                raise ValueError(f"row {i} has length {len(row)}, expected {d}")
        for i, row in enumerate(entries):
            for j, v in enumerate(row):
                if v not in (-1, 0, 1):
                    raise ValueError(f"entry ({i}, {j}) is {v}, expected -1, 0 or +1")
                if v != -entries[j][i]:
                    raise ValueError(f"entries ({i}, {j}) and ({j}, {i}) are not antisymmetric")
        return super().__new__(cls, d, entries)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates


def skew_adjacency(diagram: CauchonDiagram) -> SkewAdjacency:
    """Build A_C; the matrix depends only on the white squares' positions."""
    rows, cols = white_coordinates(diagram.row_masks, diagram.cols)
    return SkewAdjacency(len(rows), backend.skew_matrix(rows, cols))


def classify(diagram: CauchonDiagram) -> tuple[int, int]:
    """(Pfaffian, nullity) of A_C from one condensation."""
    rows, cols = white_coordinates(diagram.row_masks, diagram.cols)
    return backend.classify_cells(rows, cols)


def pfaffian(diagram: CauchonDiagram) -> int:
    """Pfaffian of A_C by exact elimination.

    1 for the empty matrix (no white squares), 0 for odd white counts;
    always equal to the signed matching sum.
    """
    return classify(diagram)[0]


def determinant(diagram: CauchonDiagram) -> int:
    """det(A_C) by exact fraction-free elimination; equals pfaffian(C)**2."""
    return backend.determinant(skew_adjacency(diagram).entries)


def nullity(diagram: CauchonDiagram) -> int:
    """dim ker(A_C): the count of central Laurent variables of the stratum.

    Zero exactly when the diagram is primitive. The rank of a skew-symmetric
    matrix is even, so the nullity always has the parity of the white count.
    It is the number of even cycles of the diagram's toric permutation (Bell,
    Casteels and Launois 2012), built from the row masks in O(m * n) with no
    condensation; ``classify`` gives the same value from the matrix.
    """
    return census._even_cycles(census._diagram_wires(diagram.cols, diagram.row_masks))


def rank(diagram: CauchonDiagram) -> int:
    """rank(A_C); always even."""
    return diagram.white_count - nullity(diagram)


def is_primitive(diagram: CauchonDiagram) -> bool:
    """True iff the corresponding torus-invariant prime is primitive.

    Equivalent tests: nonzero Pfaffian, nonzero determinant, zero nullity;
    the last runs no condensation.
    """
    return nullity(diagram) == 0
