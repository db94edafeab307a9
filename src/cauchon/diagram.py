"""Cauchon diagrams: representation, validation, parsing and enumeration.

A Cauchon diagram (elsewhere called a Le-diagram) is an m x n grid in which
some squares are coloured black, subject to the condition that every black
square has either all squares strictly to its left black, or all squares
strictly above it black. Diagrams are stored as one bitmask per row, with
bit (col - 1) set when the square in that column is black; rows and columns
are 1-indexed throughout. White squares are labeled 1..d in row-major order,
the one labeling the paper's criteria and the matching sums use.

Enumeration is deterministic: diagrams are emitted in lexicographic order of
the row-major black mask (reading the grid row by row, left to right, with
white < black), smallest first, so the all-white diagram always comes first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

# kept with the transfer census, so that ``count`` loads no diagram module
from .census import _check_shape, _row_candidates

__all__ = [
    "GridError",
    "NonRectangularError",
    "BadCharacterError",
    "NotCauchonError",
    "CauchonDiagram",
    "validate",
    "parse_grid",
    "format_grid",
    "enumerate_diagrams",
    "count_diagrams",
    "count_diagrams_no_black_column",
    "strip_black_columns",
    "transpose",
    "white_coordinates",
]

WHITE_CHAR = "."
BLACK_CHAR = "#"


class GridError(ValueError):
    """Grid text or mask that does not describe a valid diagram."""


class NonRectangularError(GridError):
    def __init__(self, row: int, length: int, expected: int):
        self.row = row
        super().__init__(
            f"row {row} has length {length}, expected {expected}: grid is not rectangular"
        )


class BadCharacterError(GridError):
    def __init__(self, row: int, col: int, char: str):
        self.row = row
        self.col = col
        super().__init__(
            f"bad character {char!r} at cell ({row}, {col}); "
            f"expected {WHITE_CHAR!r} (white) or {BLACK_CHAR!r} (black)"
        )


class NotCauchonError(GridError):
    def __init__(self, row: int, col: int):
        self.row = row
        self.col = col
        super().__init__(
            f"cell ({row}, {col}) is black but has a white square to its left "
            f"in its row and a white square above it in its column"
        )


def _lowest_zero_bit(mask: int) -> int:
    return ((mask + 1) & ~mask).bit_length() - 1


def _row_violation(mask: int, above_black: int) -> int:
    """0 if the row is admissible, else the bitmask of offending cells.

    ``above_black`` holds the columns that are entirely black in all rows
    above. A black square is admissible when it sits in the leading black
    run of its row (everything to its left black) or in a fully-black
    column; anything else violates the diagram condition.
    """
    run = _lowest_zero_bit(mask)
    beyond_run = (mask >> (run + 1)) << (run + 1)
    return beyond_run & ~above_black


@dataclass(frozen=True)
class CauchonDiagram:
    """An m x n Cauchon diagram.

    ``row_masks[i]`` has bit (col - 1) set iff square (i + 1, col) is black.
    Construction validates the diagram condition, so every instance is a
    genuine Cauchon diagram. Instances are immutable values.
    """

    rows: int
    cols: int
    row_masks: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 1:
            raise ValueError(f"rows must be >= 1, got {self.rows}")
        if self.cols < 0:
            raise ValueError(f"cols must be >= 0, got {self.cols}")
        if len(self.row_masks) != self.rows:
            raise ValueError(
                f"expected {self.rows} row masks, got {len(self.row_masks)}"
            )
        full = (1 << self.cols) - 1
        above = full
        for i, mask in enumerate(self.row_masks, start=1):
            if mask & ~full:
                raise ValueError(f"row {i} mask {mask:#x} has bits beyond column {self.cols}")
            bad = _row_violation(mask, above)
            if bad:
                raise NotCauchonError(i, (bad & -bad).bit_length())
            above &= mask

    @classmethod
    def all_white(cls, rows: int, cols: int) -> "CauchonDiagram":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def all_black(cls, rows: int, cols: int) -> "CauchonDiagram":
        return cls(rows, cols, ((1 << cols) - 1,) * rows)

    def is_black(self, row: int, col: int) -> bool:
        if not (1 <= row <= self.rows and 1 <= col <= self.cols):
            raise IndexError(f"cell ({row}, {col}) outside {self.rows}x{self.cols} grid")
        return bool(self.row_masks[row - 1] >> (col - 1) & 1)

    @property
    def black_count(self) -> int:
        return sum(mask.bit_count() for mask in self.row_masks)

    @property
    def white_count(self) -> int:
        return self.rows * self.cols - self.black_count

    def white_cells(self) -> tuple[tuple[int, int], ...]:
        """White squares in row-major order, as 1-indexed (row, col) pairs."""
        return tuple(zip(*white_coordinates(self.row_masks, self.cols)))

    def black_cells(self) -> tuple[tuple[int, int], ...]:
        cells = []
        for i, mask in enumerate(self.row_masks, start=1):
            while mask:
                low = mask & -mask
                cells.append((i, low.bit_length()))
                mask ^= low
        return tuple(cells)

    def black_column_mask(self) -> int:
        """Bitmask of columns that are entirely black."""
        acc = (1 << self.cols) - 1
        for mask in self.row_masks:
            acc &= mask
        return acc

    def __str__(self) -> str:
        return format_grid(self)


def white_coordinates(row_masks: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    """Rows and columns of the white squares, in row-major order.

    This is the one place that fixes the order of the white squares: the
    k-th white square has label k, and is row k (and column k) of the skew
    adjacency matrix.
    """
    rows: list[int] = []
    cols: list[int] = []
    for i, mask in enumerate(row_masks, start=1):
        for col in range(1, n + 1):
            if not mask >> (col - 1) & 1:
                rows.append(i)
                cols.append(col)
    return rows, cols


def validate(black_cells: Iterable[tuple[int, int]], m: int, n: int) -> bool:
    """True iff the given black mask satisfies the diagram condition.

    ``black_cells`` is any iterable of 1-indexed (row, col) pairs; it must
    lie inside the m x n grid (cells outside raise ValueError). The check
    itself is total: any in-grid mask yields True or False.
    """
    _check_shape(m, n)
    masks = [0] * m
    for row, col in black_cells:
        if not (1 <= row <= m and 1 <= col <= n):
            raise ValueError(f"cell ({row}, {col}) outside {m}x{n} grid")
        masks[row - 1] |= 1 << (col - 1)
    try:
        CauchonDiagram(m, n, tuple(masks))
    except NotCauchonError:
        return False
    return True


def parse_grid(text: str) -> CauchonDiagram:
    """Parse '.'/'#' grid text (rows separated by newlines) into a diagram.

    A single trailing newline is accepted. Raises NonRectangularError,
    BadCharacterError or NotCauchonError with the offending row/cell, and
    GridError for text that holds no squares: m x 0 grid text is m - 1
    newlines, so zero columns cannot round-trip and a grid needs n >= 1.
    """
    if text.endswith("\n"):
        text = text[:-1]
    lines = text.split("\n")
    n = len(lines[0])
    masks = []
    for i, line in enumerate(lines, start=1):
        if len(line) != n:
            raise NonRectangularError(i, len(line), n)
        mask = 0
        for j, ch in enumerate(line, start=1):
            if ch == BLACK_CHAR:
                mask |= 1 << (j - 1)
            elif ch != WHITE_CHAR:
                raise BadCharacterError(i, j, ch)
        masks.append(mask)
    if n == 0:
        raise GridError("grid text holds no squares")
    return CauchonDiagram(len(lines), n, tuple(masks))


def format_grid(diagram: CauchonDiagram) -> str:
    """Render as '.'/'#' rows joined by newlines, without trailing newline."""
    lines = []
    for mask in diagram.row_masks:
        lines.append(
            "".join(
                BLACK_CHAR if mask >> (col - 1) & 1 else WHITE_CHAR
                for col in range(1, diagram.cols + 1)
            )
        )
    return "\n".join(lines)


def _iter_row_masks(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """Yield the row-mask tuples of every m x n diagram in lexicographic order."""
    if m == 0:
        yield ()
        return
    for rows in _iter_row_masks(m - 1, n):
        above = (1 << n) - 1
        for row in rows:
            above &= row
        for mask in _row_candidates(n, above):
            yield (*rows, mask)


def enumerate_diagrams(m: int, n: int) -> Iterator[CauchonDiagram]:
    """Yield every m x n diagram exactly once, lexicographically by mask.

    n = 0 yields the single empty diagram.
    """
    _check_shape(m, n)
    for masks in _iter_row_masks(m, n):
        yield CauchonDiagram(m, n, masks)


def _state_counts(m: int, n: int) -> dict[int, int]:
    # distribution of the fully-black-column mask after m rows
    dist = {(1 << n) - 1: 1}
    for _ in range(m):
        new: dict[int, int] = {}
        for above, count in dist.items():
            for mask in _row_candidates(n, above):
                key = above & mask
                new[key] = new.get(key, 0) + count
        dist = new
    return dist


def count_diagrams(m: int, n: int) -> int:
    """|C_{m,n}|, via a transfer computation over fully-black-column states.

    Agrees with the length of :func:`enumerate_diagrams` (tested), and with
    the binomial relation expressing it through the no-black-column counts.
    """
    _check_shape(m, n)
    # |C_{m,n}| = |C_{n,m}| by transposition; the row width sets the cost
    return sum(_state_counts(max(m, n), min(m, n)).values())


def count_diagrams_no_black_column(m: int, n: int) -> int:
    """Number of m x n diagrams with no entirely black column.

    The last row is counted, not stepped: after m - 1 rows with ``above``
    black so far, it must leave every such column white, so it is a leading
    run that stops short of the first of them or, when ``above`` is 0, any
    run or the full row.
    """
    _check_shape(m, n)
    return sum(
        count * ((above & -above).bit_length() or n + 1)
        for above, count in _state_counts(m - 1, n).items()
    )


def strip_black_columns(diagram: CauchonDiagram) -> CauchonDiagram:
    """Remove every entirely black column.

    White squares, their relative order, and the Pfaffian are unchanged; an
    all-black diagram maps to the m x 0 empty diagram.
    """
    dead = diagram.black_column_mask()
    if dead == 0:
        return diagram
    keep = [col for col in range(1, diagram.cols + 1) if not dead >> (col - 1) & 1]
    masks = []
    for mask in diagram.row_masks:
        new = 0
        for new_col, col in enumerate(keep):
            if mask >> (col - 1) & 1:
                new |= 1 << new_col
        masks.append(new)
    return CauchonDiagram(diagram.rows, len(keep), tuple(masks))


def transpose(diagram: CauchonDiagram) -> CauchonDiagram:
    """Reflect along the main diagonal.

    Transposition swaps the two clauses of the diagram condition, so the
    image of a diagram with at least one column is again a diagram. An m x 0
    diagram raises ValueError: its transpose would have no rows, and a
    diagram needs one.
    """
    if diagram.cols == 0:
        raise ValueError(f"a {diagram.rows}x0 diagram has no columns, so it has no transpose")
    masks = []
    for col in range(1, diagram.cols + 1):
        mask = 0
        for row in range(1, diagram.rows + 1):
            if diagram.row_masks[row - 1] >> (col - 1) & 1:
                mask |= 1 << (row - 1)
        masks.append(mask)
    return CauchonDiagram(diagram.cols, diagram.rows, tuple(masks))
