"""Closed-form primitivity tests for one- and two-row diagrams.

A one-row diagram is primitive exactly when its white count is even. For a
two-row diagram with no entirely black column, write S for the set of fully
white columns (they all lie right of the last black square of row 2), and
sum(S) for the sum of the labels of the white squares in those columns,
labeled 1..d in row-major order; the diagram is primitive exactly when the
two row white counts have equal parity and |S| - 2*sum(S) is not congruent
to 2m + 2 mod 4 (m the white count of row 1). Entirely black columns do not
affect the Pfaffian, so the two-row test strips them first and needs no
precondition.
"""

from collections.abc import Iterable

from .diagram import CauchonDiagram, strip_black_columns

__all__ = [
    "HasBlackColumnError",
    "fully_white_columns",
    "column_label_sum",
    "primitive_1xn",
    "primitive_2xn_fast",
]


class HasBlackColumnError(ValueError):
    """Two-row statistics are only defined without entirely black columns."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(
            f"column {column} is entirely black; strip black columns first"
        )


def column_label_sum(diagram: CauchonDiagram, columns: Iterable[int]) -> int:
    """Sum of the labels of all white squares in the given columns."""
    wanted = set(columns)
    return sum(
        label
        for label, (_, col) in enumerate(diagram.white_cells(), start=1)
        if col in wanted
    )


def fully_white_columns(diagram: CauchonDiagram) -> list[int]:
    """Ascending columns white in both rows of a two-row diagram.

    They all lie right of the last black square of row 2. Raises ValueError
    for another row count, and HasBlackColumnError for an entirely black
    column.
    """
    if diagram.rows != 2:
        raise ValueError(f"needs a 2-row diagram, got {diagram.rows} rows")
    dead = diagram.black_column_mask()
    if dead:
        raise HasBlackColumnError((dead & -dead).bit_length())
    top, bottom = diagram.row_masks
    return [
        col
        for col in range(bottom.bit_length() + 1, diagram.cols + 1)
        if not top >> (col - 1) & 1
    ]


def primitive_1xn(diagram: CauchonDiagram) -> bool:
    """One-row diagrams are primitive exactly when the white count is even."""
    if diagram.rows != 1:
        raise ValueError(f"needs a 1-row diagram, got {diagram.rows} rows")
    return diagram.white_count % 2 == 0


def primitive_2xn_fast(diagram: CauchonDiagram) -> bool:
    """Constant-time-per-column primitivity test for two-row diagrams.

    Strips entirely black columns internally, then applies the parity and
    mod-4 test on the stripped diagram. Agrees with the Pfaffian test on
    every two-row diagram.
    """
    stripped = strip_black_columns(diagram)
    vert = fully_white_columns(stripped)
    top, bottom = stripped.row_masks
    m = stripped.cols - top.bit_count()
    m_prime = stripped.cols - bottom.bit_count()
    if (m - m_prime) % 2:
        return False
    lhs = (len(vert) - 2 * column_label_sum(stripped, vert)) % 4
    rhs = (2 * m + 2) % 4
    return lhs != rhs
