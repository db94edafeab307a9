import json
import random
import tracemalloc
from fractions import Fraction
from math import comb, factorial

import pytest

from cauchon import backend, census, checks, matching
from cauchon.census import CensusRecord, run_census
from cauchon.checks import (
    UnknownFormulaError,
    check_formula,
    check_relation_eqc,
    formula_value,
    proportion,
    scan_power_of_two,
)
from cauchon.cli import main as cli_main
from cauchon.diagram import CauchonDiagram, _iter_row_masks, count_diagrams, white_coordinates
from conftest import admissible_row, decode_states, random_diagrams


def test_census_2x2():
    record = run_census(2, 2)
    assert record.total == 14
    assert record.primitive == 5
    assert record.nullity_histogram[0] == record.primitive
    assert sum(record.nullity_histogram.values()) == record.total


def test_census_1x1():
    record = run_census(1, 1)
    assert (record.total, record.primitive) == (2, 1)
    assert record.nullity_histogram == {0: 1, 1: 1}


def test_census_empty_cols():
    record = run_census(3, 0)
    assert (record.total, record.primitive) == (1, 1)


def test_census_rejects_bad_args():
    with pytest.raises(ValueError):
        run_census(0, 2)


def test_census_repeat_calls_agree():
    payloads = [run_census(3, 6).to_payload() for _ in range(3)]
    assert payloads[0] == payloads[1] == payloads[2]


def test_census_worker_invariance(capsys):
    # --workers still parses on count but must not change what it prints
    outputs = []
    for workers in ("1", "2", "4"):
        argv = ["count", "--rows", "3", "--cols", "6", "--histogram", "--format", "json"]
        assert cli_main([*argv, "--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0]) == run_census(3, 6).to_payload()


def test_census_transpose_symmetry():
    assert run_census(3, 4).nullity_histogram == run_census(4, 3).nullity_histogram


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 7) for n in range(m + 1, 7)])
def test_transfer_widths_agree(m, n):
    # run_censuses always takes the shorter side as the width; this also
    # runs the longer one, which gives the same diagrams transposed
    assert census._histogram(m, [*census._sweep(m, n)][-1]) == census._histogram(n, [*census._sweep(n, m)][-1])


def _tuple_sweep(width, rows):
    """Oracle: the transfer with each state spelled out as (black-column mask, wires).

    Wire j holds 2 * pi(j) + its parity, and each row moves the wires by
    ``census._wire_moves``; the same levels as ``census._sweep``, unpacked.
    """
    states = {((1 << width) - 1, tuple(2 * w + 1 for w in range(width))): 1}
    yield states
    for _ in range(rows):
        new = {}
        for (above, wires), count in states.items():
            for row in census._row_candidates(width, above):
                key = (above & row, tuple(wires[src] ^ flip for src, flip in census._wire_moves(width, row)))
                new[key] = new.get(key, 0) + count
        states = new
        yield states


@pytest.mark.parametrize("width", range(6))
def test_packed_sweep_matches_tuple_oracle(width):
    # every level to 2w + 1 rows, by which all reachable states appear:
    # each packed state decodes to one of the oracle's, with its count
    rows = 2 * width + 1
    levels = list(zip(census._sweep(width, rows), _tuple_sweep(width, rows), strict=True))
    assert len(levels) == rows + 1
    for k, (packed, spelled) in enumerate(levels):
        assert decode_states(width, packed) == spelled, k


@pytest.mark.parametrize("n", range(12))
def test_admissible_row_indexes_the_row_candidates(n):
    # the index layout _row_masks states: blocks by run length, the
    # rightmost free column as the block index's lowest bit, the full row
    # last; from width 10 on a block has index bits past the listed ones
    for above in range(1 << n):
        rows = census._row_candidates(n, above)
        assert rows == tuple(admissible_row(n, above, k) for k in range(len(rows))), above


def listing_draws(shapes, count, seed):
    """Oracle: ``random_diagrams``' draw by listing every admissible row and choosing one."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        m, n = shapes[k % len(shapes)]
        above = (1 << n) - 1
        masks = []
        for _ in range(m):
            row = rng.choice(census._row_candidates(n, above))
            masks.append(row)
            above &= row
        out.append(CauchonDiagram(m, n, tuple(masks)))
    return out


@pytest.mark.parametrize("seed", range(5))
def test_random_diagrams_match_the_listing_draw(seed):
    # randrange(count) and choice() of a count-long list take the same
    # _randbelow(count), so the index draw returns the listing draw's diagrams
    shapes = [(6, 8), (7, 7), (8, 8), (9, 12), (10, 2), (3, 14)]
    assert random_diagrams(shapes, 120, seed) == listing_draws(shapes, 120, seed)


def test_random_diagrams_draw_wide_shapes_in_little_memory():
    # a first row of width n has 2^n admissible rows, which a listing draw
    # cannot hold at these widths
    tracemalloc.start()
    try:
        drawn = random_diagrams([(2, 40), (1, 64)], 300, seed=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert [(d.rows, d.cols) for d in drawn] == [(2, 40), (1, 64)] * 150
    assert all(type(d) is CauchonDiagram for d in drawn)
    # the draws reach the far columns, and none repeats
    assert sum(d.row_masks[0] >> 32 != 0 for d in drawn) > 250
    assert len(set(drawn)) == 300


def test_run_censuses_sweeps_each_width_once(monkeypatch):
    # every shape with m, n <= 6 (n = 0 included), shuffled, with repeats;
    # each transpose is itself one of the shapes
    shapes = [(m, n) for m in range(1, 7) for n in range(0, 7)]
    rng = random.Random(15)
    shapes += rng.sample(shapes, 10)
    rng.shuffle(shapes)
    expected = {shape: run_census(*shape) for shape in set(shapes)}
    # a level read mid-sweep is the last level of a sweep that stops there
    levels = {(min(shape), max(shape)) for shape in expected}
    last = {level: census._histogram(level[0], [*census._sweep(*level)][-1]) for level in levels}
    assert all(last[min(s), max(s)] == r.nullity_histogram for s, r in expected.items())
    sweeps = []
    sweep = census._sweep

    def counted(width, rows):
        sweeps.append((width, rows))
        return sweep(width, rows)

    monkeypatch.setattr(census, "_sweep", counted)
    records = census.run_censuses(iter(shapes))
    assert records == [expected[shape] for shape in shapes]
    # one sweep per width, to the longest side it serves
    assert sorted(sweeps) == [(width, 6) for width in range(7)]
    assert len({id(record.nullity_histogram) for record in records}) == len(records)


def test_run_censuses_edge_shapes():
    assert census.run_censuses([]) == []
    shapes = [(3, 0), (1, 0), (3, 0), (2, 2)]
    assert census.run_censuses(shapes) == [run_census(m, n) for m, n in shapes]
    for bad in [(0, 2), (2, -1), (0, 0)]:
        with pytest.raises(ValueError) as single:
            run_census(*bad)
        with pytest.raises(ValueError) as batch:
            census.run_censuses([(2, 2), bad, (3, 3)])
        assert str(batch.value) == str(single.value) == f"grid shape {bad[0]}x{bad[1]} is not valid"


def _stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, from its alternating sum."""
    return sum((-1) ** (k - i) * comb(k, i) * i**n for i in range(k + 1)) // factorial(k)


def _poly_bernoulli(m: int, n: int) -> int:
    """|C_{m,n}| as the poly-Bernoulli number sum_j (j!)^2 S(n+1, j+1) S(m+1, j+1)."""
    return sum(
        factorial(j) ** 2 * _stirling2(n + 1, j + 1) * _stirling2(m + 1, j + 1)
        for j in range(min(m, n) + 1)
    )


def test_poly_bernoulli_totals():
    for m in range(1, 8):
        for n in range(0, 12):
            assert count_diagrams(m, n) == _poly_bernoulli(m, n), (m, n)
    for m in range(1, 31):
        for n in range(0, 31):
            if m * n <= 30:
                assert run_census(m, n).total == _poly_bernoulli(m, n), (m, n)


def _oracle_histogram(m: int, n: int) -> dict[int, int]:
    """Nullity histogram with every diagram, black lines and all, run through the kernel."""
    hist: dict[int, int] = {}
    for masks in _iter_row_masks(m, n):
        nul = backend.classify_cells(*white_coordinates(masks, n))[1]
        hist[nul] = hist.get(nul, 0) + 1
    return dict(sorted(hist.items()))


#: m x 0 for m <= 3, and every shape with 1 <= m * n <= 20 except single
#: lines beyond 16 squares: 1 x 17 .. 1 x 20 and their transposes would add
#: 2^22 - 2^18 diagrams, over a minute with the pure-Python kernel
ORACLE_SHAPES = [(m, 0) for m in range(1, 4)] + [
    (m, n)
    for m in range(1, 21)
    for n in range(1, 21)
    if m * n <= 20 and (min(m, n) > 1 or m * n <= 16)
]


@pytest.mark.parametrize("m,n", ORACLE_SHAPES)
def test_census_matches_per_diagram_oracle(m, n):
    record = run_census(m, n)
    hist = _oracle_histogram(m, n)
    assert record.nullity_histogram == hist
    assert record.total == sum(hist.values())
    assert record.primitive == hist.get(0, 0)


def test_payload_shape():
    payload = run_census(2, 2).to_payload()
    assert payload["proportion_num"] == 5
    assert payload["proportion_den"] == 14
    assert payload["nullity_histogram"]["0"] == 5


# --- formulas ----------------------------------------------------------------


def test_formula_values():
    assert formula_value("P1_closed", n=5) == 16
    assert formula_value("P2_closed", n=3) == 17
    assert formula_value("P2_closed", n=1) == 2
    assert formula_value("C2_total", n=2) == 14
    assert formula_value("C2_prime_total", n=3) == 15
    assert formula_value("P3_conjectured", n=2) == 17
    assert formula_value("P3_conjectured", n=1) == 4
    assert formula_value("proportion_limit", m=2) == Fraction(3, 8)
    assert formula_value("proportion_limit", m=1) == Fraction(1, 2)


def test_formula_errors():
    with pytest.raises(UnknownFormulaError):
        formula_value("P9_closed", n=2)
    with pytest.raises(ValueError):
        formula_value("P2_closed")
    with pytest.raises(ValueError):
        formula_value("proportion_limit")


@pytest.mark.parametrize(
    "formula_id,values",
    [
        ("P1_closed", [1, 2, 4, 8, 16]),
        ("P2_closed", [2, 5, 17, 53, 167]),
        ("C2_total", [4, 14, 46, 146, 454]),
        ("C2_prime_total", [3, 7, 15, 31, 63]),
    ],
)
def test_check_formula_small_ranges(formula_id, values):
    report = check_formula(formula_id, range(1, len(values) + 1))
    assert [row["census"] for row in report.rows] == values
    assert all(row["match"] for row in report.rows)


def test_check_formula_conjecture_3xn_small():
    report = check_formula("P3_conjectured", range(1, 5))
    assert [row["census"] for row in report.rows] == [4, 17, 70, 329]
    assert all(row["match"] for row in report.rows)


def test_check_formula_rejects_limit_formula():
    with pytest.raises(ValueError):
        check_formula("proportion_limit", range(1, 3))


# --- relation and scans ---------------------------------------------------------


def test_relation_eqc_single_row():
    rows = check_relation_eqc(1, 6).rows
    assert all(row["match"] for row in rows)
    assert rows[0]["total"] == 1
    assert [row["total"] for row in rows[1:]] == [2**n for n in range(1, 7)]


def test_relation_eqc_two_rows():
    rows = check_relation_eqc(2, 5).rows
    assert all(row["match"] for row in rows)


def test_scan_power_of_two_small():
    report = scan_power_of_two(2, 4)
    assert report.ok
    assert report.rows[0]["checked"] == sum(
        census.run_census(m, n).total for m in (1, 2) for n in range(1, 5)
    )


def test_check_criterion_rows_ok():
    assert checks.check_criterion_2xn(5).ok
    assert checks.check_primitive_1xn(8).ok


def test_check_lemma_decomposition_small():
    report = checks.check_lemma_decomposition(3)
    assert report.ok
    # diagram counts are the no-black-column counts 2^(n+1) - 1
    assert [row["diagrams"] for row in report.rows] == [3, 7, 15]


def test_check_lemma_decomposition_enumerates_each_diagram_once(monkeypatch):
    calls = []
    inner = matching._iter_edge_sets

    def counted(labeled):
        calls.append(labeled)
        return inner(labeled)

    monkeypatch.setattr(matching, "_iter_edge_sets", counted)
    report = checks.check_lemma_decomposition(5)
    assert report.ok
    diagrams = sum(row["diagrams"] for row in report.rows)
    assert diagrams == 119
    assert len(calls) == diagrams


def test_check_lemma_decomposition_compares_with_condensation(monkeypatch):
    real = checks.pfaffian
    monkeypatch.setattr(checks, "pfaffian", lambda diagram: real(diagram) + 1)
    report = checks.check_lemma_decomposition(2)
    assert not report.ok
    assert all(f.endswith("vertical sums do not add to Pf") for f in report.failures)


#: each check with its compared side patched so that the identity fails: the
#: name patched in ``checks``, its replacement given the real one, the check,
#: its exact failures, and the column that reports them with its values
FAILING_CHECKS = {
    "formula": (
        "run_censuses",
        lambda real: lambda shapes: [
            r._replace(nullity_histogram={0: r.primitive + 1}) for r in real(shapes)
        ],
        lambda: check_formula(checks.P2_CLOSED, [1, 2]),
        ["n=1: formula=2 census=3", "n=2: formula=5 census=6"],
        ("match", [False, False]),
    ),
    "relation-eqc": (
        "count_diagrams",
        lambda real: lambda m, n: real(m, n) + 1,
        lambda: check_relation_eqc(2, 1),
        ["n=0: total=2 binomial_sum=1", "n=1: total=5 binomial_sum=4"],
        ("match", [False, False]),
    ),
    "power-of-two": (
        "pfaffian",
        lambda real: lambda diagram: 3,
        lambda: scan_power_of_two(1, 1),
        ["1x1 pfaffian=3\n.", "1x1 pfaffian=3\n#"],
        ("violations", [2]),
    ),
    "criterion-2xn": (
        "primitive_2xn_fast",
        lambda real: lambda diagram: not real(diagram),
        lambda: checks.check_criterion_2xn(1),
        [".\n.", ".\n#", "#\n.", "#\n#"],
        ("mismatches", [4]),
    ),
    "lemma-decomposition": (
        "_vert_closed_form",
        lambda real: lambda *args: real(*args) + 1,
        lambda: checks.check_lemma_decomposition(1),
        [
            ".\n. T=[] brute=0 closed=1",
            ".\n. T=[1] brute=1 closed=2",
            ".\n# T=[] brute=0 closed=1",
            "#\n. T=[] brute=0 closed=1",
        ],
        ("mismatches", [4]),
    ),
}


@pytest.mark.parametrize("subject", FAILING_CHECKS)
def test_checks_report_a_failing_identity(monkeypatch, subject):
    name, replacement, run, failures, (column, values) = FAILING_CHECKS[subject]
    monkeypatch.setattr(checks, name, replacement(getattr(checks, name)))
    report = run()
    assert not report.ok
    assert report.failures == failures
    assert [row[column] for row in report.rows] == values


def test_failing_check_exits_1_with_its_messages(monkeypatch, capsys):
    monkeypatch.setattr(checks, "pfaffian", lambda diagram: 3)
    code = cli_main(["check", "power-of-two", "--max-rows", "1", "--max-cols", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert out == "checked=2  violations=2\nFAIL\n1x1 pfaffian=3\n.\n1x1 pfaffian=3\n#\n"


# --- proportions ------------------------------------------------------------------


def test_proportion_examples():
    assert proportion(1, 4) == Fraction(1, 2)
    assert proportion(2, 2) == Fraction(5, 14)
    assert run_census(2, 0).proportion() == Fraction(1, 1)


def test_census_record_equality():
    first, second = run_census(3, 4), run_census(3, 4)
    assert first == second
    # the same histogram under the transposed shape is another record
    assert first != run_census(4, 3)


@pytest.mark.parametrize("m,n", [(1, 4), (2, 2), (2, 0), (3, 5)])
def test_payload_proportion_is_reduced(m, n):
    record = run_census(m, n)
    payload = record.to_payload()
    fraction = record.proportion()
    assert (payload["proportion_num"], payload["proportion_den"]) == (
        fraction.numerator,
        fraction.denominator,
    )
    # the histogram alone gives the rest of the record
    rebuilt = CensusRecord(m, n, dict(record.nullity_histogram))
    assert rebuilt == record
    assert (rebuilt.total, rebuilt.primitive) == (record.total, record.primitive)
    assert rebuilt.to_payload() == payload


# --- exploratory power-sum fit ------------------------------------------------------
#
# Reporting aid for the conjectured shape P(m, n) = sum_j c_j * j**n. The
# exponent bases run over 1-m .. m+1 without 0 (base 0 contributes nothing
# for n >= 1); the proven two-row formula and the conjectured three-row one
# both need the negative bases down to -(m-1). Nothing here is a proof: the
# fit interpolates censused values and cross-checks the leftover points. No
# command runs it yet, so it lives with its tests.


def fit_power_sum_coefficients(m: int, values: dict[int, int]) -> dict[int, Fraction]:
    """Interpolate c_j with P(m,n) = sum c_j * j**n from censused values.

    ``values`` maps n to P(m,n) and must contain at least 2m + 1 points;
    extra points are used as cross-checks and raise ValueError when the
    interpolant misses them.
    """
    bases = [j for j in range(1 - m, m + 2) if j != 0]
    ns = sorted(values)
    if len(ns) < len(bases):
        raise ValueError(f"need at least {len(bases)} data points, got {len(ns)}")
    # Cramer's rule: c_j = det(M_j) / det(M) for M[i][j] = bases[j] ** ns[i],
    # where M_j is M with column j replaced by the values
    matrix = [[base**n for base in bases] for n in ns[: len(bases)]]
    det = backend.determinant(matrix)
    if det == 0:
        raise ValueError("interpolation system is singular")
    coeffs = {}
    for j, base in enumerate(bases):
        m_j = [row[:j] + [values[n]] + row[j + 1 :] for n, row in zip(ns, matrix)]
        coeffs[base] = Fraction(backend.determinant(m_j), det)
    for n in ns[len(bases):]:
        if power_sum_value(coeffs, n) != values[n]:
            raise ValueError(f"power-sum fit fails cross-check at n={n}")
    return coeffs


def power_sum_value(coeffs: dict[int, Fraction], n: int) -> Fraction:
    return sum((c * base**n for base, c in coeffs.items()), start=Fraction(0))


def conjectured_leading_coefficient(m: int) -> Fraction:
    """(2m-1)!! / 2^m, the conjectured coefficient of (m+1)^n."""
    num = 1
    for odd in range(1, 2 * m, 2):
        num *= odd
    return Fraction(num, 2**m)


def test_fit_recovers_two_row_formula():
    values = {n: int(formula_value("P2_closed", n=n)) for n in range(1, 9)}
    coeffs = fit_power_sum_coefficients(2, values)
    assert coeffs[3] == Fraction(3, 4)
    assert coeffs[2] == Fraction(-1, 2)
    assert coeffs[1] == Fraction(1, 2)
    assert coeffs[-1] == Fraction(-1, 4)
    assert coeffs[3] == conjectured_leading_coefficient(2)
    assert power_sum_value(coeffs, 10) == formula_value("P2_closed", n=10)


def test_fit_recovers_three_row_conjecture():
    values = {n: int(formula_value("P3_conjectured", n=n)) for n in range(1, 10)}
    coeffs = fit_power_sum_coefficients(3, values)
    assert coeffs[4] == Fraction(15, 8) == conjectured_leading_coefficient(3)
    assert coeffs[-2] == Fraction(3, 8)


def test_fit_single_row():
    values = {n: 2 ** (n - 1) for n in range(1, 6)}
    coeffs = fit_power_sum_coefficients(1, values)
    assert coeffs[2] == Fraction(1, 2) == conjectured_leading_coefficient(1)
    assert coeffs[1] == 0


def test_fit_rejects_inconsistent_data():
    values = {n: int(formula_value("P2_closed", n=n)) for n in range(1, 9)}
    values[8] += 1
    with pytest.raises(ValueError):
        fit_power_sum_coefficients(2, values)


def test_fit_rejects_singular_system():
    # at even n only, the columns of the bases -1 and 1 are equal
    values = {n: int(formula_value("P2_closed", n=n)) for n in (2, 4, 6, 8)}
    with pytest.raises(ValueError, match="singular"):
        fit_power_sum_coefficients(2, values)


def test_fit_needs_enough_points():
    with pytest.raises(ValueError):
        fit_power_sum_coefficients(2, {1: 2, 2: 5})
