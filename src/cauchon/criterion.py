"""Closed-form primitivity tests for one- and two-row diagrams.

A one-row diagram is primitive exactly when its white count is even. For a
two-row diagram with no entirely black column, write S for the set of fully
white columns (they all lie right of the last black square of row 2), and
sum(S) for the sum of the labels of the white squares in those columns,
labeled 1..d in row-major order; the diagram is primitive exactly when the
two row white counts have equal parity and |S| - 2*sum(S) is not congruent
to 2m + 2 mod 4 (m the white count of row 1). An entirely black column
holds no white square, so it neither joins S nor moves a label, and the
two-row test needs no precondition.
"""

from .diagram import CauchonDiagram, white_coordinates

__all__ = [
    "HasBlackColumnError",
    "fully_white_columns",
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


def _column_label_sums(diagram: CauchonDiagram) -> dict[int, int]:
    """Each column white in both rows of a two-row diagram, ascending, to its two labels' sum."""
    if diagram.rows != 2:
        raise ValueError(f"needs a 2-row diagram, got {diagram.rows} rows")
    upper: dict[int, int] = {}
    sums: dict[int, int] = {}
    rows, cols = white_coordinates(diagram.row_masks, diagram.cols)
    for label, (row, col) in enumerate(zip(rows, cols), start=1):
        if row == 1:
            upper[col] = label
        elif col in upper:
            sums[col] = upper[col] + label
    return sums


def fully_white_columns(diagram: CauchonDiagram) -> list[int]:
    """Ascending columns white in both rows of a two-row diagram.

    They all lie right of the last black square of row 2. Raises ValueError
    for another row count, and HasBlackColumnError for an entirely black
    column.
    """
    sums = _column_label_sums(diagram)
    dead = diagram.black_column_mask()
    if dead:
        raise HasBlackColumnError((dead & -dead).bit_length())
    return list(sums)


def primitive_1xn(diagram: CauchonDiagram) -> bool:
    """One-row diagrams are primitive exactly when the white count is even."""
    if diagram.rows != 1:
        raise ValueError(f"needs a 1-row diagram, got {diagram.rows} rows")
    return diagram.white_count % 2 == 0


def primitive_2xn_fast(diagram: CauchonDiagram) -> bool:
    """Constant-time-per-column primitivity test for two-row diagrams.

    The parity test reads the row masks and the mod-4 test the fully white
    columns' label sums. Agrees with the Pfaffian test on every two-row
    diagram.
    """
    sums = _column_label_sums(diagram)
    top, bottom = diagram.row_masks
    if (top.bit_count() - bottom.bit_count()) % 2:
        return False
    m = diagram.cols - top.bit_count()
    return (len(sums) - 2 * sum(sums.values())) % 4 != (2 * m + 2) % 4
