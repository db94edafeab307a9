"""Exact condensation kernel for skew-symmetric integer matrices.

The Pfaffian/rank kernel runs a fraction-free condensation: each step picks
a nonzero pivot a[s][s+1] (after swaps), replaces the trailing block by

    a[i][j] <- (p * a[i][j] - a[s][i] * a[s+1][j] + a[s][j] * a[s+1][i]) // prev

and advances two rows. Every intermediate entry equals the Pfaffian of a
principal submatrix of the (swapped) input, so the division by the previous
pivot is exact and everything stays in integers. When the matrix has full
rank the final pivot is the Pfaffian of the swapped input; row/column swaps
each flip its sign. Python's unbounded integers make this kernel valid for
any dimension.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["active_backend", "pfaffian_and_nullity", "skew_matrix", "classify_cells", "determinant"]


def active_backend() -> str:
    """Name of the condensation kernel; there is only the pure-Python one."""
    return "python"


def _condense(a: list[list[int]], d: int) -> tuple[int, int]:
    # returns (pfaffian, nullity); `a` is destroyed
    if d == 0:
        return 1, 0
    sign = 1
    prev = 1
    pf_zero = d % 2 == 1
    s = 0

    def swap(x: int, y: int) -> None:
        a[x], a[y] = a[y], a[x]
        for row in a:
            row[x], row[y] = row[y], row[x]

    while s < d - 1:
        row_s = a[s]
        j0 = -1
        for j in range(s + 1, d):
            if row_s[j]:
                j0 = j
                break
        if j0 < 0:
            # Pfaffian vanishes; keep condensing off-row pivots for the rank.
            pf_zero = True
            i0 = -1
            for i in range(s + 1, d - 1):
                for j in range(i + 1, d):
                    if a[i][j]:
                        i0, j0 = i, j
                        break
                if i0 >= 0:
                    break
            if i0 < 0:
                break
            swap(s, i0)
            row_s = a[s]
        if j0 != s + 1:
            swap(s + 1, j0)
            sign = -sign
        p = row_s[s + 1]
        row_t = a[s + 1]
        for i in range(s + 2, d):
            asi = row_s[i]
            ati = row_t[i]
            row_i = a[i]
            for j in range(i + 1, d):
                v = (p * row_i[j] - asi * row_t[j] + row_s[j] * ati) // prev
                row_i[j] = v
                a[j][i] = -v
        prev = p
        s += 2
    pf = 0 if pf_zero else sign * prev
    return pf, d - s


def pfaffian_and_nullity(matrix: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Exact Pfaffian and nullity of a skew-symmetric integer matrix.

    The empty matrix has Pfaffian 1 and nullity 0; odd dimensions have
    Pfaffian 0.
    """
    d = len(matrix)
    a = [list(row) for row in matrix]
    return _condense(a, d)


def skew_matrix(rows: Sequence[int], cols: Sequence[int]) -> list[list[int]]:
    """Skew adjacency matrix of white squares, as fresh nested lists.

    ``rows``/``cols`` give the coordinates of the white squares in row-major
    order; entry (i, j) with i < j is +1 exactly when the two squares share
    a row or a column, and entry (j, i) is its negative.
    """
    d = len(rows)
    a = [[0] * d for _ in range(d)]
    for i in range(d):
        ri = rows[i]
        ci = cols[i]
        ai = a[i]
        for j in range(i + 1, d):
            if rows[j] == ri or cols[j] == ci:
                ai[j] = 1
                a[j][i] = -1
    return a


def classify_cells(rows: Sequence[int], cols: Sequence[int]) -> tuple[int, int]:
    """Pfaffian and nullity of the skew adjacency matrix of white squares."""
    return _condense(skew_matrix(rows, cols), len(rows))


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination.

    Bareiss updates keep every intermediate an honest minor of the
    row-swapped input, so the divisions are exact. The empty matrix has
    determinant 1.
    """
    d = len(matrix)
    if d == 0:
        return 1
    a = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(d - 1):
        if a[k][k] == 0:
            for i in range(k + 1, d):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        p = a[k][k]
        row_k = a[k]
        for i in range(k + 1, d):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, d):
                row_i[j] = (row_i[j] * p - aik * row_k[j]) // prev
        prev = p
    return sign * a[d - 1][d - 1]
