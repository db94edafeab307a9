"""Benchmark-owned diagram arithmetic: workload inputs and the exact oracle.

Nothing here imports the package under test, so the inputs a seed produces
and the references they are checked against stay the same whatever the
package does. Row masks follow the package's convention: bit (c - 1) is set
when the square in column c is black.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

#: shapes of the single-diagram queries, one third of the batch each
QUERY_SHAPES = ((6, 8), (7, 7), (8, 8))
#: diagrams per query batch; large enough that the seed moves the mean cost little
QUERY_BATCH = 600
#: each candidate row is weighted by this base to the power of its white
#: squares, which puts d in 25..63 with about 0.4 of queries above 44
WHITE_WEIGHT = 2


@lru_cache(maxsize=None)
def admissible_rows(n: int, above_black: int) -> tuple[int, ...]:
    """Every row mask allowed under the given fully-black columns, ascending.

    A black square needs all squares to its left black or all squares above
    it black, so past the leading black run only fully-black columns may be
    black.
    """
    out = []
    for mask in range(1 << n):
        run = ((mask + 1) & ~mask).bit_length() - 1
        if mask & ~((1 << run) - 1) & ~above_black == 0:
            out.append(mask)
    return tuple(out)


@dataclass
class Properties:
    """Exact input properties of a set of diagrams (no timing)."""

    diagrams: int = 0
    black_column: int = 0
    black_line: int = 0
    sum_d: int = 0
    max_d: int = 0
    d_gt_44: int = 0
    odd_d: int = 0

    def add(self, d: int, count: int, black_column: bool, black_line: bool) -> None:
        self.diagrams += count
        self.odd_d += count * (d % 2)
        self.black_column += count * black_column
        self.black_line += count * black_line
        self.sum_d += count * d
        self.max_d = max(self.max_d, d)
        self.d_gt_44 += count * (d > 44)

    def __iadd__(self, other: "Properties") -> "Properties":
        for name in ("diagrams", "black_column", "black_line", "sum_d", "d_gt_44", "odd_d"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.max_d = max(self.max_d, other.max_d)
        return self


def shape_properties(m: int, n: int) -> Properties:
    """Exact properties of all m x n diagrams.

    A transfer over rows keyed by (fully-black columns so far, any black row
    yet, white squares so far) counts without listing diagrams.
    """
    full = (1 << n) - 1
    states = {(full, False, 0): 1}
    for _ in range(m):
        nxt: dict[tuple[int, bool, int], int] = {}
        for (above, black_row, d), count in states.items():
            for mask in admissible_rows(n, above):
                key = (above & mask, black_row or mask == full, d + n - mask.bit_count())
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
    props = Properties()
    for (above, black_row, d), count in states.items():
        props.add(d, count, above != 0, above != 0 or black_row)
    return props


def random_diagram(rng: random.Random, m: int, n: int) -> tuple[int, ...]:
    full = (1 << n) - 1
    above = full
    masks = []
    for _ in range(m):
        rows = admissible_rows(n, above)
        weights = [WHITE_WEIGHT ** (n - r.bit_count()) for r in rows]
        mask = rng.choices(rows, weights)[0]
        masks.append(mask)
        above &= mask
    return tuple(masks)


def query_batch(seed: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """The seeded query-large batch as (m, n, row masks), shapes interleaved."""
    rng = random.Random(seed)
    return [
        (m, n, random_diagram(rng, m, n))
        for _ in range(QUERY_BATCH // len(QUERY_SHAPES))
        for m, n in QUERY_SHAPES
    ]


def query_properties(batch) -> Properties:
    props = Properties()
    for m, n, masks in batch:
        full = (1 << n) - 1
        above = full
        for mask in masks:
            above &= mask
        props.add(
            white_count(n, masks), 1, above != 0, above != 0 or full in masks
        )
    return props


def white_count(n: int, masks) -> int:
    return sum(n - mask.bit_count() for mask in masks)


def grid_text(n: int, masks) -> str:
    return "\n".join(
        "".join("#" if mask >> c & 1 else "." for c in range(n)) for mask in masks
    )


def skew_adjacency(n: int, masks) -> list[list[int]]:
    cells = [
        (i, c) for i, mask in enumerate(masks) for c in range(n) if not mask >> c & 1
    ]
    d = len(cells)
    a = [[0] * d for _ in range(d)]
    for x, (rx, cx) in enumerate(cells):
        for y in range(x + 1, d):
            ry, cy = cells[y]
            if rx == ry or cx == cy:
                a[x][y] = 1
                a[y][x] = -1
    return a


def determinant_and_rank(matrix: list[list[int]]) -> tuple[int, int]:
    """Exact determinant and rank by Bareiss fraction-free elimination.

    Columns without a pivot are skipped, which keeps every entry a minor of
    the input, so each division is exact.
    """
    a = [row[:] for row in matrix]
    d = len(a)
    sign = 1
    prev = 1
    r = 0
    for c in range(d):
        pivot = next((i for i in range(r, d) if a[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        row_r = a[r]
        p = row_r[c]
        for i in range(r + 1, d):
            row_i = a[i]
            f = row_i[c]
            a[i] = row_i[:c] + [(x * p - f * y) // prev for x, y in zip(row_i[c:], row_r[c:])]
        prev = p
        r += 1
    return (sign * prev if r == d else 0), r
