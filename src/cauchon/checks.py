"""Closed formulas, identity checks and conjecture scans over the census.

Closed formulas live in a small registry keyed by formula id, and the
check_* and scan_* helpers turn the known identities and conjectures into
executable reports. Each returns a ``CheckReport``: a header, one row per
tested size keyed by the header's column names, and the failure messages.
Each check runs as a ``cauchon check`` subject, except ``check_primitive_1xn``,
which the acceptance tests run. Conjectured formulas are only ever reported
as "no counterexample found"; nothing here claims a proof.
"""

from collections import namedtuple
from collections.abc import Callable, Iterable
from math import comb

from .census import run_census, run_censuses
from .criterion import column_label_sum, fully_white_columns, primitive_1xn, primitive_2xn_fast
from .diagram import (
    CauchonDiagram,
    count_diagrams,
    count_diagrams_no_black_column,
    enumerate_diagrams,
    format_grid,
)
from .matching import vertical_edge_sums
from .pfaffian import pfaffian

__all__ = [
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
]

# --- closed formulas ---------------------------------------------------------

P1_CLOSED = "P1_closed"
P2_CLOSED = "P2_closed"
C2_TOTAL = "C2_total"
C2_PRIME_TOTAL = "C2_prime_total"
P3_CONJECTURED = "P3_conjectured"
PROPORTION_LIMIT = "proportion_limit"


class UnknownFormulaError(ValueError):
    """Formula id outside the registry."""


def formula_value(formula_id: str, n: int | None = None, m: int | None = None):
    """Exact value of a registered closed form, as a ``fractions.Fraction``.

    Sequence formulas take ``n`` (>= 1); the limiting proportion takes the
    row count ``m``.
    """
    from fractions import Fraction

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


class CheckReport(namedtuple("CheckReport", "header rows failures")):
    """Outcome of one check: rows keyed by the ``header`` columns, and failures.

    ``header`` is a tuple of column names, ``rows`` a list of dicts and
    ``failures`` a list of messages, each ready to print. No failures means
    the identity held on the tested range or, for a conjecture, no
    counterexample was found.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


_FORMULA_ROWS = {P1_CLOSED: 1, P2_CLOSED: 2, P3_CONJECTURED: 3}


def check_formula(formula_id: str, ns: Iterable[int]) -> CheckReport:
    """Compare a sequence formula against censused values, one row per n.

    Matches are exact integer equality. For conjectured formulas agreement
    means only "no counterexample in the tested range".
    """
    ns = list(ns)
    # raises for unknown ids and for the limit, which has no per-n value
    formulas = [formula_value(formula_id, n=n) for n in ns]
    if formula_id == C2_PRIME_TOTAL:
        censused = [count_diagrams_no_black_column(2, n) for n in ns]
    elif formula_id == C2_TOTAL:
        censused = [count_diagrams(2, n) for n in ns]
    else:
        m = _FORMULA_ROWS[formula_id]
        censused = [record.primitive for record in run_censuses([(m, n) for n in ns])]
    rows, failures = [], []
    for n, expected, actual in zip(ns, formulas, censused):
        rows.append({"n": n, "formula": expected, "census": actual, "match": expected == actual})
        if expected != actual:
            failures.append(f"n={n}: formula={expected} census={actual}")
    return CheckReport(("n", "formula", "census", "match"), rows, failures)


def check_relation_eqc(m: int, max_n: int) -> CheckReport:
    """Verify |C_{m,n}| = sum_i C(n,i) * |C'_{m,n-i}| for n = 0..max_n, from two transfers.

    |C_{m,n}| is ``count_diagrams``, along the shorter side, and |C'| (no black
    column) is ``count_diagrams_no_black_column``, along the m rows.
    """
    if m < 1 or max_n < 0:
        raise ValueError(f"invalid range m={m}, max_n={max_n}")
    no_black_column = [count_diagrams_no_black_column(m, k) for k in range(max_n + 1)]
    rows, failures = [], []
    for n in range(max_n + 1):
        lhs = count_diagrams(m, n)
        rhs = sum(comb(n, i) * no_black_column[n - i] for i in range(n + 1))
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
        for diagram in enumerate_diagrams(2, n):
            if diagram.black_column_mask():
                continue
            diagrams += 1
            vert = fully_white_columns(diagram)
            m, m_prime = (n - mask.bit_count() for mask in diagram.row_masks)
            sums = vertical_edge_sums(diagram)
            for bits in range(1 << len(vert)):
                subset = [vert[i] for i in range(len(vert)) if bits >> i & 1]
                subsets += 1
                brute = sums.get(frozenset(subset), 0)
                label_sum = column_label_sum(diagram, subset)
                closed = _vert_closed_form(len(subset), label_sum, m, m_prime)
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


def proportion(m: int, n: int):
    """P(m,n) / |C_{m,n}| as a reduced ``fractions.Fraction``."""
    return run_census(m, n).proportion()

