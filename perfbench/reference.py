"""Reference values and output checks owned by the benchmark.

Every check returns (outputs checked, outputs failing, messages). Totals and
input properties come from the benchmark's own transfer count in inputs.py;
primitive counts come from the published table.
"""

from __future__ import annotations

import json
from fractions import Fraction

from inputs import Properties, determinant_and_rank, shape_properties, skew_adjacency, white_count

#: P(m, n) from the published reference table
PRIMITIVE = {
    **{(1, n): 2 ** (n - 1) for n in range(1, 6)},
    (2, 1): 2, (2, 2): 5, (2, 3): 17, (2, 4): 53, (2, 5): 167, (2, 9): 14507,
    (3, 1): 4, (3, 2): 17, (3, 3): 70, (3, 4): 329, (3, 5): 1414,
    (4, 1): 8, (4, 2): 53, (4, 3): 329, (4, 4): 1865, (4, 5): 11243,
    (5, 4): 11243,
}

#: |C_{m,n}| for the census shapes, cross-checked against the transfer count
TOTAL = {(5, 4): 41506, (2, 9): 38854}


class Shapes:
    """Exact totals and properties of every diagram of the given shapes."""

    def __init__(self, shapes):
        self.per_shape = {shape: shape_properties(*shape) for shape in shapes}
        self.props = Properties()
        for props in self.per_shape.values():
            self.props += props
        self.totals = {shape: props.diagrams for shape, props in self.per_shape.items()}
        for shape, total in self.totals.items():
            if shape in TOTAL and TOTAL[shape] != total:
                raise RuntimeError(f"transfer count {total} != reference {TOTAL[shape]} for {shape}")


def _check_record(record: dict, shape, shapes: Shapes, histogram: bool) -> list[str]:
    m, n = shape
    total = shapes.totals[shape]
    errors = []
    if (record.get("m"), record.get("n")) != shape:
        errors.append(f"shape {record.get('m')}x{record.get('n')} != {m}x{n}")
    if record.get("total") != total:
        errors.append(f"{m}x{n}: total {record.get('total')} != {total}")
    if record.get("primitive") != PRIMITIVE[shape]:
        errors.append(f"{m}x{n}: primitive {record.get('primitive')} != {PRIMITIVE[shape]}")
    prop = Fraction(PRIMITIVE[shape], total)
    if (record.get("proportion_num"), record.get("proportion_den")) != (prop.numerator, prop.denominator):
        errors.append(f"{m}x{n}: proportion is not {prop}")
    if histogram:
        hist = {int(k): v for k, v in (record.get("nullity_histogram") or {}).items()}
        if sum(hist.values()) != total:
            errors.append(f"{m}x{n}: histogram sums to {sum(hist.values())}, not {total}")
        if hist.get(0) != PRIMITIVE[shape]:
            errors.append(f"{m}x{n}: histogram[0] {hist.get(0)} != {PRIMITIVE[shape]}")
        # the nullity has the parity of d, so odd nullities count odd-d diagrams
        odd = sum(v for k, v in hist.items() if k % 2)
        if odd != shapes.per_shape[shape].odd_d:
            errors.append(f"{m}x{n}: {odd} odd nullities but {shapes.per_shape[shape].odd_d} odd-d diagrams")
    return errors


def check_count(stdout: str, shape, shapes: Shapes):
    """`cauchon count ... --histogram --format json`: one output record."""
    try:
        record = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return 1, 1, [f"unparseable count output: {exc}"]
    errors = _check_record(record, shape, shapes, histogram=True)
    return 1, int(bool(errors)), errors


def check_table(stdout: str, shapes: Shapes):
    """`cauchon table ... --format csv`: one output per shape row."""
    expected = list(shapes.totals)
    lines = stdout.strip().split("\n")
    header = lines[0].split(",")
    try:
        rows = [dict(zip(header, map(int, line.split(",")))) for line in lines[1:]]
        rows = [r for r in rows if "m" in r and "n" in r]
    except ValueError as exc:
        return len(expected), len(expected), [f"unparseable table output: {exc}"]
    failed = 0
    errors = [] if len(rows) == len(expected) else [f"{len(rows)} rows, expected {len(expected)}"]
    for shape in expected:
        match = [r for r in rows if (r["m"], r["n"]) == shape]
        row_errors = _check_record(match[0], shape, shapes, False) if match else [f"{shape} missing"]
        failed += bool(row_errors)
        errors += row_errors
    return len(expected), min(len(expected), failed + (len(rows) != len(expected))), errors


def query_oracle(batch) -> list[tuple[int, int, int]]:
    """(d, det A_C, rank A_C) for each query by exact Bareiss elimination."""
    out = []
    for m, n, masks in batch:
        det, rank = determinant_and_rank(skew_adjacency(n, masks))
        out.append((white_count(n, masks), det, rank))
    return out


def check_queries(results, oracle):
    """Each (pf, nullity) answer: Pf^2 = det, nullity = d - rank, parity, zero test."""
    checked = failed = 0
    errors = []
    for batch_results in results:
        for i, ((pf, nul), (d, det, rank)) in enumerate(zip(batch_results, oracle)):
            checked += 1
            bad = pf * pf != det or nul != d - rank or (nul - d) % 2 or (nul == 0) != (pf != 0)
            if bad:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"query {i}: pf={pf} nullity={nul}, but d={d} det={det} rank={rank}")
        if len(batch_results) != len(oracle):
            failed += 1
            errors.append(f"{len(batch_results)} answers for {len(oracle)} queries")
    return checked, failed, errors
