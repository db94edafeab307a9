"""Exact condensation kernel for skew-symmetric integer matrices.

``_schur`` gives the Pfaffian and the nullity. It reads and writes only
entries right of the diagonal: the lower triangle is never read, so its
values do not matter. At row s it takes a nonzero entry a[s][j] right of
the diagonal as the pivot pair's partner, a +-1 one when row s has one,
else the first, and swaps index j into place s+1 by ``_swap`` (each swap
flips the sign; the entries between the two indices cross the diagonal, so
the swap moves them negated, and rows before s are finished and never read
again). It replaces the trailing block's upper triangle, j > i, by the
exact Schur complement of the pivot pair,

    a[i][j] <- a[i][j] + (a[s+1][i] / p) * a[s][j] - (a[s][i] / p) * a[s+1][j]

with p = a[s][s+1], and advances two rows. A row s with no nonzero entry
right of the diagonal vanishes on the trailing block, so it is a kernel
vector: the kernel passes over it and advances one row. The nullity is d
minus twice the pivots taken, and the Pfaffian is 0 unless the nullity is
0, else the sign times the product of the pivots.

Each trailing row coupled to a pivot row divides its two couplings by p, as
a product when |p| is 1 and by ``divmod`` otherwise; a row coupled to
neither is not touched, so there is no rescale. A quotient of +-1 adds or
subtracts its pivot row, and only other quotients take a product. A
coupling that p does not divide sends its row entry by entry, each
numerator a[s+1][i] * a[s][j] - a[s][i] * a[s+1][j] through ``divmod``,
and an entry that leaves a remainder becomes the exact
``fractions.Fraction``: the kernel never rounds, and the product of the
pivots, the Pfaffian of an integer matrix, is an integer again. No diagram
or grid sampled leaves the integers, so ``fractions`` is imported only on
that branch. On diagrams' matrices the entries stay within a few small
integers, which CPython does not allocate, and Python's unbounded integers
make the kernel valid for any dimension.

``classify_cells`` condenses A_C in fill-reducing order from ``_ORDER_CUT``
white squares on: ``_line_degree_order`` stable-sorts the squares by line
degree, the white squares of their row plus those of their column, fewest
first (the minimum-degree idea of sparse elimination, George and Liu, SIAM
Review 31, 1989, fixed before the first pivot), and ``skew_matrix`` builds
the congruent matrix P^T A_C P with each square at its index in that
order. Pf(P^T A_C P) = det(P) Pf(A_C), with det(P) = (-1)^(d - cycles of
P), and the nullity is unchanged. On query-large's seed 1-3 batches (1,800
queries, d 27..63) the order cuts the trailing rows coupled to a pivot
pair from 646,394 to 543,426, and those sent entry by entry through
``divmod`` from 92,734 to 18,997. Below the cut the order costs more than
it saves, so A_C is condensed in label order, as the squares come.
"""

from collections.abc import Sequence

__all__ = ["active_backend", "skew_matrix", "classify_cells", "determinant"]

#: the white-square count from which ``classify_cells`` condenses in
#: line-degree order: where the order starts to save more than it costs,
#: as the ``cut`` line of ``benchmarks/bench_backends.py`` measures it
_ORDER_CUT = 25


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


def _schur(a: list[list[int]], d: int) -> tuple[int, int]:
    # returns (pfaffian, nullity); `a` is destroyed
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
                            from fractions import Fraction

                            q = Fraction(ati * row_s[j] - asi * row_t[j], p)
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
    return (0 if nullity else sign * int(pf)), nullity


def skew_matrix(rows: Sequence[int], cols: Sequence[int], at: Sequence[int] | None = None) -> list[list[int]]:
    """Skew adjacency matrix of white squares, as fresh nested lists.

    ``rows``/``cols`` give the coordinates of the white squares, one square
    per label; square k sits at index ``at[k]`` of the matrix, at index k
    when ``at`` is None. The entry of squares k < l that share a row or a
    column is +1 at (at[k], at[l]) and -1 at (at[l], at[k]): the sign comes
    from label order wherever the squares sit. The squares are grouped by
    row and by column, so only true neighbours are set. Raises
    ``ValueError`` when ``rows`` and ``cols`` differ in length.
    """
    d = len(rows)
    if len(cols) != d:
        raise ValueError(f"rows has {d} coordinates but cols has {len(cols)}")
    a = [[0] * d for _ in range(d)]
    # each square meets the earlier squares of its row, then of its column;
    # the lines hold the indices the squares sit at, and the two are spelt
    # out, as a loop over them is slower on small d
    by_row: dict[int, list[int]] = {}
    by_col: dict[int, list[int]] = {}
    for i, r, c in zip(range(d) if at is None else at, rows, cols):
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


def _line_degree_order(rows: Sequence[int], cols: Sequence[int]) -> tuple[list[int], bool]:
    """The index each square sits at in fill-reducing order, and whether that order is an odd permutation.

    The squares are stable-sorted by line degree, the white squares of
    their row plus those of their column, fewest first; ties keep label
    order. The permutation of d indices with c cycles is odd when d - c is.
    """
    per_row: dict[int, int] = {}
    per_col: dict[int, int] = {}
    for r in rows:
        per_row[r] = per_row.get(r, 0) + 1
    for c in cols:
        per_col[c] = per_col.get(c, 0) + 1
    degree = [per_row[r] + per_col[c] for r, c in zip(rows, cols)]
    order = sorted(range(len(degree)), key=degree.__getitem__)
    at = [0] * len(order)
    for k, label in enumerate(order):
        at[label] = k
    seen = [False] * len(at)
    cycles = 0
    for start in range(len(at)):
        if not seen[start]:
            cycles += 1
            k = start
            while not seen[k]:
                seen[k] = True
                k = at[k]
    return at, (len(at) - cycles) % 2 == 1


def _ordered_matrix(rows: Sequence[int], cols: Sequence[int]) -> tuple[list[list[int]], bool]:
    """P^T A_C P, A_C built in line-degree order (``_line_degree_order``), and whether P is odd.

    Its Pfaffian is det(P) Pf(A_C): Pf(A_C) negated when P is odd.
    """
    at, odd = _line_degree_order(rows, cols)
    return skew_matrix(rows, cols, at), odd


def classify_cells(rows: Sequence[int], cols: Sequence[int]) -> tuple[int, int]:
    """Pfaffian and nullity of the skew adjacency matrix of white squares, by the Schur kernel.

    From ``_ORDER_CUT`` squares on, the kernel condenses the congruent
    matrix P^T A_C P, with P the permutation that puts the squares with the
    fewest line neighbours first, which leaves less fill to update:
    Pf(P^T A_C P) = det(P) Pf(A_C), with det(P) = (-1)^(d - cycles of P),
    and the nullity is the same. Below the cut ordering costs more than it
    saves, and the kernel condenses A_C as the squares are labelled.
    """
    d = len(rows)
    if d < _ORDER_CUT:
        return _schur(skew_matrix(rows, cols), d)
    a, odd = _ordered_matrix(rows, cols)
    pf, nullity = _schur(a, d)
    return (-pf if odd else pf), nullity


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
