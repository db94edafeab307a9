"""Exact condensation kernel for skew-symmetric integer matrices.

The Pfaffian/rank kernel runs a fraction-free condensation with one pivot
rule, reading and writing only entries right of the diagonal: the lower
triangle is never read, so its values do not matter. At row s it takes
the first nonzero entry a[s][j] right of the diagonal, swaps index j into
place s+1 (each swap flips the sign; the entries between the two indices
cross the diagonal, so the swap moves them negated, and rows before s are
finished and never read again), replaces the trailing block's upper
triangle, j > i, by

    a[i][j] <- (p * a[i][j] - a[s][i] * a[s+1][j] + a[s][j] * a[s+1][i]) // prev

with p = a[s][s+1], and advances two rows. A row with no such entry
vanishes on the trailing block, so it is a kernel vector: the kernel passes
over it and advances one row. Dropping an index leaves a principal
submatrix, so every intermediate entry is still the Pfaffian of a principal
submatrix of the (swapped) input, the division by the previous pivot is
exact and everything stays in integers. The nullity is d minus twice the
pivots taken; when it is 0 the last pivot, times the sign, is the Pfaffian,
and otherwise the Pfaffian is 0. Python's unbounded integers make this
kernel valid for any dimension.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["active_backend", "pfaffian_and_nullity", "skew_matrix", "classify_cells", "determinant"]


def active_backend() -> str:
    """Name of the condensation kernel; there is only the pure-Python one."""
    return "python"


def _condense(a: list[list[int]], d: int) -> tuple[int, int]:
    # returns (pfaffian, nullity); `a` is destroyed
    sign = 1
    prev = 1
    pairs = 0
    s = 0
    while s < d - 1:
        row_s = a[s]
        for j0 in range(s + 1, d):
            if row_s[j0]:
                break
        else:
            # row s vanishes on the trailing block: a kernel vector
            s += 1
            continue
        t = s + 1
        if j0 != t:
            # swap indices t and j0 on the upper triangle: the tails right
            # of j0 trade places with the row lists, entries between the two
            # cross the diagonal and change sign
            row_t, row_j = a[j0], a[t]
            a[t], a[j0] = row_t, row_j
            row_s[t], row_s[j0] = row_s[j0], row_s[t]
            for k in range(t + 1, j0):
                row_k = a[k]
                row_t[k] = -row_k[j0]
                row_k[j0] = -row_j[k]
            row_t[j0] = -row_j[j0]
            sign = -sign
        else:
            row_t = a[t]
        p = row_s[t]
        for i in range(s + 2, d):
            asi = row_s[i]
            ati = row_t[i]
            row_i = a[i]
            for j in range(i + 1, d):
                row_i[j] = (p * row_i[j] - asi * row_t[j] + row_s[j] * ati) // prev
        prev = p
        pairs += 1
        s += 2
    nullity = d - 2 * pairs
    return (0 if nullity else sign * prev), nullity


def pfaffian_and_nullity(matrix: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Exact Pfaffian and nullity of a skew-symmetric integer matrix.

    Only the entries above the diagonal are read. The empty matrix has
    Pfaffian 1 and nullity 0; odd dimensions have Pfaffian 0.
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
    row-swapped input, so the divisions are exact; the last pivot is the
    determinant, and the empty matrix has determinant 1.
    """
    d = len(matrix)
    a = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(d):
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
    return sign * prev
