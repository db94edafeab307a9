"""Acceptance suite: every exit criterion at its stated scale and tolerance.

Each test evaluates one criterion, prints a single PASS/FAIL line (visible
with ``pytest -s``), and then asserts. All comparisons are exact; nothing
here is approximate except the explicitly reported proportion convergence,
which only checks closeness, not monotonicity.
"""

import random
from fractions import Fraction

from cauchon import (
    census,
    determinant,
    enumerate_diagrams,
    enumerate_matchings,
    is_primitive,
    matching_sign,
    nullity,
    pfaffian,
    pfaffian_by_matchings,
    transpose,
    with_labels,
)
from cauchon.census import formula_value, run_census
from cauchon.cli import main as cli_main
from cauchon.diagram import _iter_row_masks
from conftest import sample_diagrams
from test_pfaffian import insert_black_column

# Reference counts of primitive torus-invariant primes for small shapes.
KNOWN_PRIMITIVE_COUNTS = {
    1: (1, 2, 4, 8, 16, 32, 64, 128, 256),
    2: (2, 5, 17, 53, 167, 515, 1577, 4793, 14507),
    3: (4, 17, 70, 329, 1414, 6167, 25960, 108629, 447874),
    4: (8, 53, 329, 1865, 11243, 62303, 349469),
    5: (16, 167, 1414, 11243, 80806, 596897),
}


def verdict(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")


def test_criterion_1_table_reproduction():
    mismatches = []
    cells = 0
    for m, row in KNOWN_PRIMITIVE_COUNTS.items():
        for n, expected in enumerate(row, start=1):
            record = run_census(m, n)
            cells += 1
            if record.primitive != expected:
                mismatches.append((m, n, expected, record.primitive))
    ok = not mismatches
    verdict("1 table reproduction", ok, f"{cells} cells exact")
    assert ok, mismatches


def test_criterion_2_two_row_closed_formula():
    mismatches = []
    for n in range(1, 11):
        expected = formula_value(census.P2_CLOSED, n=n)
        actual = run_census(2, n).primitive
        if expected != actual:
            mismatches.append((n, expected, actual))
    ok = not mismatches
    verdict("2 two-row closed formula", ok, "n=1..10 exact")
    assert ok, mismatches


def test_criterion_3_counting_identities():
    bad = []
    for n in range(0, 11):
        total = 0
        no_black = 0
        for masks in _iter_row_masks(2, n):
            total += 1
            if masks[0] & masks[1] == 0:
                no_black += 1
        expected_total = 2 * 3**n - 2**n if n else 1
        expected_no_black = 2 ** (n + 1) - 1 if n else 1
        if total != expected_total:
            bad.append(("total", n, expected_total, total))
        if no_black != expected_no_black:
            bad.append(("no-black-column", n, expected_no_black, no_black))
    for m in range(1, 4):
        for row in census.check_relation_eqc(m, 8).rows:
            if not row["match"]:
                bad.append(("binomial-relation", m, row["n"], row["total"], row["binomial_sum"]))
    ok = not bad
    verdict("3 counting identities", ok, "2-row counts n<=10; binomial relation m<=3, n<=8")
    assert ok, bad


def test_criterion_4_fast_criterion_equivalence():
    bad = []
    report = census.check_criterion_2xn(8)
    two_row_diagrams = sum(row["diagrams"] for row in report.rows)
    if not report.ok:
        bad.append(("2xn", report.failures))
    for row in report.rows:
        if row["diagrams"] != 2 * 3 ** row["n"] - 2 ** row["n"]:
            bad.append(("2xn-count", row["n"], row["diagrams"]))
    one_row = census.check_primitive_1xn(12)
    if not one_row.ok:
        bad.append(("1xn", one_row.failures))
    ok = not bad
    verdict("4 fast criterion equivalence", ok, f"{two_row_diagrams} two-row diagrams, 1xn n<=12")
    assert ok, bad


def test_criterion_5_oracle_equivalence():
    # rank evenness is the invariant behind the parity claim here: the rank
    # of a skew-symmetric integer matrix is even, so the nullity always has
    # the parity of the white count (and is even exactly for even counts).
    bad = []
    checked = 0
    pools = [
        diagram
        for m in range(1, 4)
        for n in range(1, 4)
        for diagram in enumerate_diagrams(m, n)
    ]
    pools.extend(sample_diagrams(4, 4, 500, seed=987654321))
    for diagram in pools:
        pf = pfaffian(diagram)
        checked += 1
        if pf != pfaffian_by_matchings(diagram):
            bad.append(("pf-oracle", diagram))
        if determinant(diagram) != pf * pf:
            bad.append(("det", diagram))
        nul = nullity(diagram)
        if (diagram.white_count - nul) % 2:
            bad.append(("odd-rank", diagram))
        if nul % 2 != diagram.white_count % 2:
            bad.append(("nullity-parity", diagram))
    ok = not bad
    verdict("5 oracle equivalence", ok, f"{checked} diagrams, det = Pf^2, even rank")
    assert ok, bad


def test_criterion_6_vertical_decomposition():
    report = census.check_lemma_decomposition(5)
    subsets = sum(row["subsets"] for row in report.rows)
    ok = report.ok
    verdict("6 vertical decomposition", ok, f"n<=5, {subsets} column subsets")
    assert ok, report.failures


def test_criterion_7_conjecture_scans():
    bad = []
    for row in census.check_formula(census.P3_CONJECTURED, range(1, 8)).rows:
        if not row["match"]:
            bad.append(("three-row-formula", row["n"], row["formula"], row["census"]))
    small = census.scan_power_of_two(4, 4)
    if not small.ok:
        bad.append(("power-of-two-4x4", small.failures))
    wide = census.scan_power_of_two(2, 6)
    if not wide.ok:
        bad.append(("power-of-two-2x6", wide.failures))
    proportions = [(n, run_census(2, n).proportion()) for n in range(1, 10)]
    print("    two-row primitive proportion vs limit 3/8:")
    for n, prop in proportions:
        print(f"      n={n}: {prop} = {float(prop):.5f}")
    limit = Fraction(3, 8)
    if abs(proportions[-1][1] - limit) >= Fraction(1, 100):
        bad.append(("proportion-not-near-limit", proportions[-1]))
    if abs(proportions[-1][1] - limit) >= abs(proportions[0][1] - limit):
        bad.append(("proportion-not-closer", proportions))
    ok = not bad
    checked = small.rows[0]["checked"] + wide.rows[0]["checked"]
    verdict("7 conjecture scans", ok, f"3-row formula n<=7; |Pf| power of 2 on {checked} diagrams")
    assert ok, bad


def test_criterion_8_determinism(capsys):
    payloads = [run_census(3, 6).to_payload() for _ in range(3)]
    ok = payloads[0] == payloads[1] == payloads[2]

    outputs = []
    for _ in range(2):
        code = cli_main(["count", "--rows", "3", "--cols", "3", "--format", "json", "--workers", "2"])
        captured = capsys.readouterr()
        outputs.append((code, captured.out))
    ok = ok and outputs[0] == outputs[1]

    with capsys.disabled():
        verdict("8 determinism", ok, "repeat calls identical; CLI byte-identical")
    assert ok, (payloads, outputs)


def test_criterion_9_invariance_suite():
    bad = []
    rng = random.Random(13579)
    for m in range(1, 4):
        for n in range(1, 4):
            for diagram in enumerate_diagrams(m, n):
                pf = pfaffian(diagram)
                d = diagram.white_count

                offset = with_labels(diagram, tuple(k + 7 for k in range(1, d + 1)))
                gapped = with_labels(diagram, tuple(4 * k + 3 for k in range(d)))
                if pfaffian_by_matchings(offset) != pf or pfaffian_by_matchings(gapped) != pf:
                    bad.append(("relabeling", diagram))

                for matching in enumerate_matchings(diagram):
                    edges = list(matching.edges)
                    reference = matching_sign(edges)
                    for _ in range(3):
                        rng.shuffle(edges)
                        if matching_sign(edges) != reference:
                            bad.append(("edge-order", diagram, tuple(edges)))

                for position in range(1, n + 2):
                    if pfaffian(insert_black_column(diagram, position)) != pf:
                        bad.append(("black-column-insertion", diagram, position))

                if is_primitive(transpose(diagram)) != (pf != 0):
                    bad.append(("transpose", diagram))
    ok = not bad
    verdict("9 invariance suite", ok, "relabeling, edge order, black columns, transpose")
    assert ok, bad
