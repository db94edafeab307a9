"""Exact condensation kernels for skew-symmetric integer matrices.

Two kernels give the Pfaffian and the nullity. Both read and write only
entries right of the diagonal: the lower triangle is never read, so its
values do not matter. At row s each takes a nonzero entry a[s][j] right of
the diagonal as the pivot pair's partner, swaps index j into place s+1 by
the one helper ``_swap`` (each swap flips the sign; the entries between the
two indices cross the diagonal, so the swap moves them negated, and rows
before s are finished and never read again), updates the trailing block's
upper triangle, j > i, and advances two rows. A row s with no nonzero entry
right of the diagonal vanishes on the trailing block, so it is a kernel
vector: the kernels pass over it and advance one row. The nullity is d
minus twice the pivots taken, and the Pfaffian is 0 unless the nullity is
0.

``_schur``, the one ``classify_cells`` runs first, takes a +-1 partner when
row s has one, else the first nonzero entry, and replaces the trailing
block by the exact Schur complement of the pivot pair,

    a[i][j] <- a[i][j] + (a[s+1][i] / p) * a[s][j] - (a[s][i] / p) * a[s+1][j]

with p = a[s][s+1]; the Pfaffian is the sign times the product of the
pivots. Each trailing row coupled to a pivot row divides its two couplings
by p, as a product when |p| is 1 and by ``divmod`` otherwise; a row coupled
to neither is not touched, so there is no rescale. A quotient of +-1 adds or
subtracts its pivot row, and only other quotients take a product. A
coupling that p does not divide sends its row entry by entry, each
numerator a[s+1][i] * a[s][j] - a[s][i] * a[s+1][j] through ``divmod``,
and an entry that leaves a remainder ends the kernel with ``None``: it
never rounds. On diagrams' matrices the entries stay within a few small
integers, which CPython does not allocate.

``_condense``, the fallback and the oracle, is fraction-free (Bareiss) and
takes the first nonzero partner:

    a[i][j] <- (p * a[i][j] - a[s][i] * a[s+1][j] + a[s][j] * a[s+1][i]) // prev

Every trailing row takes this one formula, with prev the previous pivot
(1 at the start). Dropping an index leaves a principal submatrix, so every
intermediate entry is still the Pfaffian of a principal submatrix of the
(swapped) input, the division by the previous pivot is exact and
everything stays in integers; the last pivot, times the sign, is the
Pfaffian. Python's unbounded integers make both kernels valid for any
dimension.
"""

from collections.abc import Sequence

__all__ = ["active_backend", "skew_matrix", "classify_cells", "determinant"]


def active_backend() -> str:
    """Name of the condensation kernel; there is only the pure-Python one."""
    return "python"


def _swap(a: list[list[int]], row_s: list[int], t: int, j: int) -> list[int]:
    # swap indices t and j > t on the upper triangle, with row s (s < t) the
    # one earlier row still read, and return the new row t: the tails right
    # of j trade places with the row lists, entries between the two cross
    # the diagonal and change sign
    row_t, row_j = a[j], a[t]
    a[t], a[j] = row_t, row_j
    row_s[t], row_s[j] = row_s[j], row_s[t]
    for k in range(t + 1, j):
        row_k = a[k]
        row_t[k] = -row_k[j]
        row_k[j] = -row_j[k]
    row_t[j] = -row_j[j]
    return row_t


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
            row_t = _swap(a, row_s, t, j0)
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


def _schur(a: list[list[int]], d: int) -> tuple[int, int] | None:
    # returns (pfaffian, nullity), or None when an entry's division leaves
    # a remainder; `a` is destroyed
    sign = 1
    pf = 1
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
        v = row_s[j0]
        if v != 1 and v != -1:
            # a unit partner, if row s has one, keeps the divisions exact
            for j in range(j0 + 1, d):
                v = row_s[j]
                if v == 1 or v == -1:
                    j0 = j
                    break
        t = s + 1
        if j0 != t:
            row_t = _swap(a, row_s, t, j0)
            sign = -sign
        else:
            row_t = a[t]
        p = row_s[t]
        pf *= p
        unit = p == 1 or p == -1
        for i in range(s + 2, d):
            asi = row_s[i]
            ati = row_t[i]
            if not asi and not ati:
                continue
            row_i = a[i]
            if unit:
                # 1 / p == p
                cs = asi * p
                ct = ati * p
            else:
                cs, rs = divmod(asi, p)
                ct, rt = divmod(ati, p)
                if rs or rt:
                    for j in range(i + 1, d):
                        q, r = divmod(ati * row_s[j] - asi * row_t[j], p)
                        if r:
                            return None
                        row_i[j] += q
                    continue
            # a quotient of +-1 adds or subtracts its pivot row; only other
            # quotients take a product
            if not cs:
                if ct == 1:
                    for j in range(i + 1, d):
                        row_i[j] += row_s[j]
                elif ct == -1:
                    for j in range(i + 1, d):
                        row_i[j] -= row_s[j]
                else:
                    for j in range(i + 1, d):
                        row_i[j] += ct * row_s[j]
            elif not ct:
                if cs == 1:
                    for j in range(i + 1, d):
                        row_i[j] -= row_t[j]
                elif cs == -1:
                    for j in range(i + 1, d):
                        row_i[j] += row_t[j]
                else:
                    for j in range(i + 1, d):
                        row_i[j] -= cs * row_t[j]
            elif (ct == 1 or ct == -1) and (cs == 1 or cs == -1):
                if cs == ct:
                    if ct == 1:
                        for j in range(i + 1, d):
                            row_i[j] += row_s[j] - row_t[j]
                    else:
                        for j in range(i + 1, d):
                            row_i[j] -= row_s[j] - row_t[j]
                elif ct == 1:
                    for j in range(i + 1, d):
                        row_i[j] += row_s[j] + row_t[j]
                else:
                    for j in range(i + 1, d):
                        row_i[j] -= row_s[j] + row_t[j]
            else:
                for j in range(i + 1, d):
                    row_i[j] += ct * row_s[j] - cs * row_t[j]
        pairs += 1
        s += 2
    nullity = d - 2 * pairs
    return (0 if nullity else sign * pf), nullity


def skew_matrix(rows: Sequence[int], cols: Sequence[int]) -> list[list[int]]:
    """Skew adjacency matrix of white squares, as fresh nested lists.

    ``rows``/``cols`` give the coordinates of the white squares, one square
    per index; entry (i, j) with i < j is +1 exactly when squares i and j
    share a row or a column, and entry (j, i) is its negative. The squares
    are grouped by row and by column, so only true neighbours are set.
    Raises ``ValueError`` when ``rows`` and ``cols`` differ in length.
    """
    d = len(rows)
    if len(cols) != d:
        raise ValueError(f"rows has {d} coordinates but cols has {len(cols)}")
    a = [[0] * d for _ in range(d)]
    # each square meets the earlier squares of its row, then of its column;
    # the two are spelt out, as a loop over them is slower on small d
    by_row: dict[int, list[int]] = {}
    by_col: dict[int, list[int]] = {}
    for i, r, c in zip(range(d), rows, cols):
        ai = a[i]
        line = by_row.get(r)
        if line is None:
            by_row[r] = [i]
        else:
            for j in line:
                a[j][i] = 1
                ai[j] = -1
            line.append(i)
        line = by_col.get(c)
        if line is None:
            by_col[c] = [i]
        else:
            for j in line:
                a[j][i] = 1
                ai[j] = -1
            line.append(i)
    return a


def classify_cells(rows: Sequence[int], cols: Sequence[int]) -> tuple[int, int]:
    """Pfaffian and nullity of the skew adjacency matrix of white squares.

    The Schur kernel runs first; when an entry's update leaves a remainder
    on division by the pivot, the Bareiss kernel condenses a fresh copy of
    the matrix.
    """
    d = len(rows)
    return _schur(skew_matrix(rows, cols), d) or _condense(skew_matrix(rows, cols), d)


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
