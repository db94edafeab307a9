"""Exhaustive census of diagrams: primitive counts, histograms, formula checks.

The census classifies diagrams by the nullity of their skew adjacency
matrix (nullity 0 means primitive) without building a single matrix. By
Bell, Casteels and Launois ("Enumeration of H-strata in quantum matrices
with respect to dimension", J. Combin. Theory Ser. A 119, 2012), that
nullity is the number of even-length cycles of the diagram's toric
permutation: the pipe dream in which black squares are crosses and white
squares elbows (Postnikov, arXiv math/0609764). The permutation is built
one row at a time, so a transfer pass over row states replaces the
enumeration. A state holds the mask of columns black so far, which decides
the rows that may follow, and for each column wire the label it has reached
and the parity of the path that took it there. Diagrams that reach the same
state have the same nullity whatever rows follow, so each state carries
only a count of diagrams. The pass runs over rows of the shorter side, since
a diagram and its transpose have the same nullity, in one process with
exact integer counts.

Closed formulas live in a small registry keyed by formula id, and the
check_* and scan_* helpers turn the known identities and conjectures into
executable reports. Each returns a ``CheckReport``: a header, one row per
tested size keyed by the header's column names, and the failure messages.
Conjectured formulas are only ever reported as "no counterexample found";
nothing here claims a proof.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Mapping, Sequence

from .criterion import column_label_sum, primitive_1xn, primitive_2xn_fast, two_row_stats
from .diagram import (
    CauchonDiagram,
    _iter_row_masks,
    _row_candidates,
    canonical_labels,
    enumerate_diagrams,
    format_grid,
)
from .matching import vertical_edge_sums
from .pfaffian import pfaffian

__all__ = [
    "CensusRecord",
    "run_census",
    "UnknownFormulaError",
    "formula_value",
    "CheckReport",
    "check_formula",
    "check_relation_eqc",
    "scan_power_of_two",
    "check_criterion_2xn",
    "check_primitive_1xn",
    "check_lemma_decomposition",
    "proportion",
    "fit_power_sum_coefficients",
    "power_sum_value",
    "conjectured_leading_coefficient",
]

@dataclass(frozen=True)
class CensusRecord:
    """Aggregate counts for one grid shape.

    ``nullity_histogram`` maps nullity to diagram count (histogram[0]
    equals the primitive count). ``elapsed`` is wall time in seconds and is
    excluded from data payloads.
    """

    m: int
    n: int
    total: int
    primitive: int
    nullity_histogram: dict[int, int]
    elapsed: float = field(default=0.0, compare=False)

    def proportion(self) -> Fraction:
        return Fraction(self.primitive, self.total)

    def to_payload(self) -> dict:
        """Deterministic JSON-ready dict (no timing information)."""
        hist = {str(k): self.nullity_histogram[k] for k in sorted(self.nullity_histogram)}
        prop = self.proportion()
        return {
            "m": self.m,
            "n": self.n,
            "total": self.total,
            "primitive": self.primitive,
            "proportion_num": prop.numerator,
            "proportion_den": prop.denominator,
            "nullity_histogram": hist,
        }


def _wire_moves(width: int, row: int) -> tuple[tuple[int, int], ...]:
    """(source wire, parity flip) for each column wire across one row.

    The white columns j_1 < ... < j_k of the row (black where ``row`` has a
    bit) each take the wire of the white column before them, and j_1 takes
    the wire of j_k with its parity flipped. Black columns keep their wires.
    """
    moves = [(j, 0) for j in range(width)]
    white = [j for j in range(width) if not row >> j & 1]
    for before, after in zip(white, white[1:]):
        moves[after] = (before, 0)
    if white:
        moves[white[0]] = (white[-1], 1)
    return tuple(moves)


def _transfer(width: int, rows: int) -> dict[tuple[int, tuple[int, ...]], int]:
    """The states the ``rows`` x ``width`` diagrams end in, each with its diagram count.

    A state is (black-column mask, wires): wire w holds 2 * pi(w) + parity,
    where pi is a permutation of the columns. The start is the full mask,
    the identity and every parity odd.
    """
    states = {((1 << width) - 1, tuple(2 * w + 1 for w in range(width))): 1}
    moves: dict[int, tuple[tuple[int, int], ...]] = {}
    for _ in range(rows):
        new: dict[tuple[int, tuple[int, ...]], int] = {}
        for (above, wires), count in states.items():
            for row in _row_candidates(width, above):
                if row not in moves:
                    moves[row] = _wire_moves(width, row)
                key = (above & row, tuple([wires[src] ^ flip for src, flip in moves[row]]))
                new[key] = new.get(key, 0) + count
        states = new
    return states


def _even_cycles(wires: Sequence[int]) -> int:
    """Number of cycles of the wire permutation whose parities sum to even."""
    seen = [False] * len(wires)
    count = 0
    for start in range(len(wires)):
        if seen[start]:
            continue
        parity = 0
        w = start
        while not seen[w]:
            seen[w] = True
            parity ^= wires[w] & 1
            w = wires[w] >> 1
        count += not parity
    return count


def _transfer_histogram(width: int, rows: int) -> dict[int, int]:
    """Nullity histogram of the ``rows`` x ``width`` diagrams, from one transfer."""
    hist: dict[int, int] = {}
    for (_, wires), count in _transfer(width, rows).items():
        nul = _even_cycles(wires)
        hist[nul] = hist.get(nul, 0) + count
    return dict(sorted(hist.items()))


def run_census(m: int, n: int) -> CensusRecord:
    """Classify all of C_{m,n} in one transfer pass, with the full nullity histogram.

    The nullity of a diagram's skew adjacency matrix is the number of even
    cycles of its toric permutation (Bell, Casteels and Launois 2012), and
    that permutation is built row by row. The pass runs over rows of the
    shorter side: a diagram and its transpose have the same nullity.
    """
    if m < 1 or n < 0:
        raise ValueError(f"grid shape {m}x{n} is not valid")
    start = time.perf_counter()
    hist = _transfer_histogram(min(m, n), max(m, n))
    return CensusRecord(
        m=m,
        n=n,
        total=sum(hist.values()),
        primitive=hist.get(0, 0),
        nullity_histogram=hist,
        elapsed=time.perf_counter() - start,
    )


# --- closed formulas ---------------------------------------------------------

P1_CLOSED = "P1_closed"
P2_CLOSED = "P2_closed"
C2_TOTAL = "C2_total"
C2_PRIME_TOTAL = "C2_prime_total"
P3_CONJECTURED = "P3_conjectured"
PROPORTION_LIMIT = "proportion_limit"


class UnknownFormulaError(ValueError):
    """Formula id outside the registry."""


def formula_value(formula_id: str, n: int | None = None, m: int | None = None) -> Fraction:
    """Exact value of a registered closed form.

    Sequence formulas take ``n`` (>= 1); the limiting proportion takes the
    row count ``m``.
    """
    if formula_id == PROPORTION_LIMIT:
        if m is None or m < 1:
            raise ValueError("proportion_limit needs a row count m >= 1")
        return Fraction(comb(2 * m, m), 4**m)
    if n is None or n < 1:
        raise ValueError(f"{formula_id} needs a column count n >= 1")
    if formula_id == P1_CLOSED:
        # even white subsets of a single row
        return Fraction(2 ** (n - 1))
    if formula_id == P2_CLOSED:
        return Fraction(3 ** (n + 1) - 2 ** (n + 1) + (-1) ** (n + 1) + 2, 4)
    if formula_id == C2_TOTAL:
        return Fraction(2 * 3**n - 2**n)
    if formula_id == C2_PRIME_TOTAL:
        return Fraction(2 ** (n + 1) - 1)
    if formula_id == P3_CONJECTURED:
        return Fraction(
            15 * 4**n - 18 * 3**n + 13 * 2**n - 6 * (-1) ** n + 3 * (-2) ** n, 8
        )
    raise UnknownFormulaError(f"unknown formula id {formula_id!r}")


def _count_no_black_column_by_enumeration(m: int, n: int) -> int:
    count = 0
    for masks in _iter_row_masks(m, n):
        acc = (1 << n) - 1
        for mask in masks:
            acc &= mask
        if acc == 0:
            count += 1
    return count


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: rows keyed by the ``header`` columns, and failures.

    Each failure is a message ready to print. No failures means the identity
    held on the tested range or, for a conjecture, no counterexample was found.
    """

    header: tuple[str, ...]
    rows: list[dict]
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


_FORMULA_ROWS = {P1_CLOSED: 1, P2_CLOSED: 2, P3_CONJECTURED: 3}


def check_formula(formula_id: str, ns: Iterable[int]) -> CheckReport:
    """Compare a sequence formula against censused values, one row per n.

    Matches are exact integer equality. For conjectured formulas agreement
    means only "no counterexample in the tested range".
    """
    rows, failures = [], []
    for n in ns:
        # raises for unknown ids and for the limit, which has no per-n value
        expected = formula_value(formula_id, n=n)
        if formula_id == C2_TOTAL:
            actual = run_census(2, n).total
        elif formula_id == C2_PRIME_TOTAL:
            actual = _count_no_black_column_by_enumeration(2, n)
        else:
            actual = run_census(_FORMULA_ROWS[formula_id], n).primitive
        rows.append({"n": n, "formula": expected, "census": actual, "match": expected == actual})
        if expected != actual:
            failures.append(f"n={n}: formula={expected} census={actual}")
    return CheckReport(("n", "formula", "census", "match"), rows, failures)


def check_relation_eqc(m: int, max_n: int) -> CheckReport:
    """Verify |C_{m,n}| = sum_i C(n,i) * |C'_{m,n-i}|, both sides enumerated."""
    if m < 1 or max_n < 0:
        raise ValueError(f"invalid range m={m}, max_n={max_n}")
    no_black = [_count_no_black_column_by_enumeration(m, k) for k in range(max_n + 1)]
    rows, failures = [], []
    for n in range(max_n + 1):
        lhs = sum(1 for _ in _iter_row_masks(m, n))
        rhs = sum(comb(n, i) * no_black[n - i] for i in range(n + 1))
        rows.append({"n": n, "total": lhs, "binomial_sum": rhs, "match": lhs == rhs})
        if lhs != rhs:
            failures.append(f"n={n}: total={lhs} binomial_sum={rhs}")
    return CheckReport(("n", "total", "binomial_sum", "match"), rows, failures)


def _is_zero_or_power_of_two(value: int) -> bool:
    v = abs(value)
    return v == 0 or (v & (v - 1)) == 0


def scan_power_of_two(max_m: int, max_n: int) -> CheckReport:
    """Scan |Pf| over all shapes up to max_m x max_n for non-powers of two.

    No failures supports (but does not prove) the conjecture that the
    Pfaffian of a diagram is always 0 or +-2^k.
    """
    checked = 0
    failures = []
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            for diagram in enumerate_diagrams(m, n):
                pf = pfaffian(diagram)
                checked += 1
                if not _is_zero_or_power_of_two(pf):
                    failures.append(f"{m}x{n} pfaffian={pf}\n{format_grid(diagram)}")
    return CheckReport(
        ("checked", "violations"), [{"checked": checked, "violations": len(failures)}], failures
    )


def _check_closed_form(
    m: int, max_n: int, predicate: Callable[[CauchonDiagram], bool]
) -> CheckReport:
    rows, failures = [], []
    for n in range(1, max_n + 1):
        before = len(failures)
        count = 0
        for diagram in enumerate_diagrams(m, n):
            count += 1
            if predicate(diagram) != (pfaffian(diagram) != 0):
                failures.append(format_grid(diagram))
        rows.append({"n": n, "diagrams": count, "mismatches": len(failures) - before})
    return CheckReport(("n", "diagrams", "mismatches"), rows, failures)


def check_criterion_2xn(max_n: int) -> CheckReport:
    """Fast two-row test versus the Pfaffian test, exhaustively per n."""
    return _check_closed_form(2, max_n, primitive_2xn_fast)


def check_primitive_1xn(max_n: int) -> CheckReport:
    """Even-white-count test versus the Pfaffian test for single rows."""
    return _check_closed_form(1, max_n, primitive_1xn)


def _vert_closed_form(t_size: int, label_sum: int, m: int, m_prime: int) -> int:
    if m % 2 == m_prime % 2 == t_size % 2:
        return -1 if (comb(t_size + 1, 2) + label_sum) % 2 else 1
    return 0


def check_lemma_decomposition(max_n: int) -> CheckReport:
    """Check the vertical-edge decomposition of two-row Pfaffians.

    For every two-row diagram without black columns and every subset T of
    its fully white columns, the brute-force signed sum over matchings whose
    vertical edges sit exactly in T must equal the closed form
    (-1)^(C(|T|+1,2) + sum(T)) gated by the parity condition, and the sums
    over all T must add up to the Pfaffian from the condensation kernel.
    The matchings of each diagram are enumerated once.
    """
    rows, failures = [], []
    for n in range(1, max_n + 1):
        before = len(failures)
        diagrams = 0
        subsets = 0
        for masks in _iter_row_masks(2, n):
            acc = masks[0] & masks[1]
            if acc:
                continue
            diagram = CauchonDiagram(2, n, masks)
            diagrams += 1
            labeled = canonical_labels(diagram)
            stats = two_row_stats(diagram)
            vert = sorted(stats.vert_set)
            sums = vertical_edge_sums(labeled)
            for bits in range(1 << len(vert)):
                subset = [vert[i] for i in range(len(vert)) if bits >> i & 1]
                subsets += 1
                brute = sums.get(frozenset(subset), 0)
                label_sum = column_label_sum(labeled, subset)
                closed = _vert_closed_form(len(subset), label_sum, stats.m, stats.m_prime)
                if brute != closed:
                    failures.append(
                        f"{format_grid(diagram)} T={subset} brute={brute} closed={closed}"
                    )
            if sum(sums.values()) != pfaffian(diagram):
                failures.append(f"{format_grid(diagram)} vertical sums do not add to Pf")
        rows.append(
            {"n": n, "diagrams": diagrams, "subsets": subsets, "mismatches": len(failures) - before}
        )
    return CheckReport(("n", "diagrams", "subsets", "mismatches"), rows, failures)


def proportion(m: int, n: int) -> Fraction:
    """P(m,n) / |C_{m,n}| as an exact (reduced) rational."""
    return run_census(m, n).proportion()


# --- exploratory power-sum fit ------------------------------------------------
#
# Reporting aid for the conjectured shape P(m, n) = sum_j c_j * j**n. The
# exponent bases run over 1-m .. m+1 without 0 (base 0 contributes nothing
# for n >= 1); the proven two-row formula and the conjectured three-row one
# both need the negative bases down to -(m-1). Nothing here is a proof: the
# fit interpolates censused values and cross-checks the leftover points.


def fit_power_sum_coefficients(
    m: int, values: Mapping[int, int]
) -> dict[int, Fraction]:
    """Interpolate c_j with P(m,n) = sum c_j * j**n from censused values.

    ``values`` maps n to P(m,n) and must contain at least 2m + 1 points;
    extra points are used as cross-checks and raise ValueError when the
    interpolant misses them.
    """
    bases = [j for j in range(1 - m, m + 2) if j != 0]
    ns = sorted(values)
    if len(ns) < len(bases):
        raise ValueError(f"need at least {len(bases)} data points, got {len(ns)}")
    solve_ns = ns[: len(bases)]
    size = len(bases)
    matrix = [
        [Fraction(base**n) for base in bases] + [Fraction(values[n])]
        for n in solve_ns
    ]
    for col in range(size):
        pivot = next((r for r in range(col, size) if matrix[r][col] != 0), None)
        if pivot is None:
            raise ValueError("interpolation system is singular")
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        pv = matrix[col][col]
        for r in range(size):
            if r != col and matrix[r][col] != 0:
                f = matrix[r][col] / pv
                for c in range(col, size + 1):
                    matrix[r][c] -= f * matrix[col][c]
    coeffs = {base: matrix[i][size] / matrix[i][i] for i, base in enumerate(bases)}
    for n in ns[len(bases):]:
        if power_sum_value(coeffs, n) != values[n]:
            raise ValueError(f"power-sum fit fails cross-check at n={n}")
    return coeffs


def power_sum_value(coeffs: Mapping[int, Fraction], n: int) -> Fraction:
    return sum((c * base**n for base, c in coeffs.items()), start=Fraction(0))


def conjectured_leading_coefficient(m: int) -> Fraction:
    """(2m-1)!! / 2^m, the conjectured coefficient of (m+1)^n."""
    num = 1
    for odd in range(1, 2 * m, 2):
        num *= odd
    return Fraction(num, 2**m)
