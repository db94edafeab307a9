"""Command-line surface: censuses, single-diagram reports, identity checks.

All data output is byte-deterministic for a given set of flags: ordering is
fixed and timing goes to stderr, never into the data channel. Exit codes:
0 success, 1 check failure or counterexample, 2 usage error, 3 guardrail
breach, 4 unparseable grid input.

Only the census is imported at start-up: ``count`` and ``table`` run nothing
else, and each command starts a fresh interpreter. The other commands import
what they use when they run.
"""

import argparse
import json
import sys

from . import census

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARDRAIL = 3
EXIT_PARSE = 4

DEFAULT_MAX_CELLS = 30


class GuardrailError(Exception):
    def __init__(self, cells: int, limit: int):
        super().__init__(
            f"{cells} cells exceeds the guardrail of {limit}; "
            f"raise it with --max-cells"
        )


class UsageError(Exception):
    pass


def _guard_cells(cells: int, args: argparse.Namespace) -> None:
    if cells > args.max_cells:
        raise GuardrailError(cells, args.max_cells)


def _read_grid(spec: str):
    """The diagram in the file ``spec`` (``-`` for stdin); raises GridError."""
    from .diagram import GridError, parse_grid

    try:
        if spec == "-":
            text = sys.stdin.read()
        else:
            with open(spec, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GridError(f"cannot read grid {spec}: {exc}") from exc
    return parse_grid(text)


def _print_elapsed(seconds: float) -> None:
    print(f"elapsed: {seconds:.3f}s", file=sys.stderr)


# --- count / table -------------------------------------------------------------

_CSV_HEADER = "m,n,total,primitive,proportion_num,proportion_den"


def _census_csv_row(record: census.CensusRecord) -> str:
    payload = record.to_payload()
    return ",".join(str(payload[key]) for key in _CSV_HEADER.split(","))


def _cmd_count(args: argparse.Namespace) -> int:
    if args.rows < 1 or args.cols < 0:
        raise UsageError("--rows must be >= 1 and --cols >= 0")
    if args.histogram and args.format == "csv":
        raise UsageError("--histogram needs --format text or json")
    _guard_cells(args.rows * args.cols, args)
    record = census.run_census(args.rows, args.cols)
    if args.format == "csv":
        print(_CSV_HEADER)
        print(_census_csv_row(record))
    elif args.format == "json":
        payload = record.to_payload()
        if not args.histogram:
            payload.pop("nullity_histogram")
        print(json.dumps(payload))
    else:
        payload = record.to_payload()
        print(f"m: {record.m}")
        print(f"n: {record.n}")
        print(f"total: {record.total}")
        print(f"primitive: {record.primitive}")
        print(f"proportion: {payload['proportion_num']}/{payload['proportion_den']}")
        if args.histogram:
            print("nullity histogram:")
            for key in sorted(record.nullity_histogram):
                print(f"  {key}: {record.nullity_histogram[key]}")
    _print_elapsed(record.elapsed)
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    if args.max_rows < 1 or args.max_cols < 1:
        raise UsageError("--max-rows and --max-cols must be >= 1")
    _guard_cells(args.max_rows * args.max_cols, args)
    records = []
    elapsed = 0.0
    for m in range(1, args.max_rows + 1):
        for n in range(1, args.max_cols + 1):
            record = census.run_census(m, n)
            records.append(record)
            elapsed += record.elapsed
    if args.format == "csv":
        print(_CSV_HEADER)
        for record in records:
            print(_census_csv_row(record))
    elif args.format == "json":
        rows = []
        for record in records:
            payload = record.to_payload()
            payload.pop("nullity_histogram")
            rows.append(payload)
        print(json.dumps(rows))
    else:
        width = max(len(str(r.primitive)) for r in records) + 2
        header = "m\\n" + "".join(f"{n:>{width}}" for n in range(1, args.max_cols + 1))
        print(header)
        for m in range(1, args.max_rows + 1):
            cells = [r.primitive for r in records if r.m == m]
            print(f"{m:>3}" + "".join(f"{v:>{width}}" for v in cells))
    _print_elapsed(elapsed)
    return EXIT_OK


# --- pfaffian -------------------------------------------------------------------


def _cmd_pfaffian(args: argparse.Namespace) -> int:
    from .pfaffian import classify, skew_adjacency

    diagram = _read_grid(args.grid)
    pf, nul = classify(diagram)
    primitive = pf != 0
    if args.format == "json":
        payload: dict = {
            "rows": diagram.rows,
            "cols": diagram.cols,
            "white_count": diagram.white_count,
            "pfaffian": pf,
            "determinant": pf * pf,  # det = Pf^2 for every skew-symmetric matrix
        }
        if args.show_nullity:
            payload["nullity"] = nul
        payload["primitive"] = primitive
        if args.show_matrix:
            payload["matrix"] = [list(row) for row in skew_adjacency(diagram).entries]
        print(json.dumps(payload))
    else:
        print(f"rows: {diagram.rows}")
        print(f"cols: {diagram.cols}")
        print(f"white squares: {diagram.white_count}")
        print(f"pfaffian: {pf}")
        print(f"determinant: {pf * pf}")
        if args.show_nullity:
            print(f"nullity: {nul}")
        print(f"primitive: {'true' if primitive else 'false'}")
        if args.show_matrix:
            print("matrix:")
            for row in skew_adjacency(diagram).entries:
                print("  " + " ".join(f"{v:>2}" for v in row))
    return EXIT_OK


# --- check ----------------------------------------------------------------------

#: subject -> (size options with their defaults, squares the guardrail checks,
#: the check given the ``checks`` module, the text-format verdict when nothing
#: fails)
_CHECKS = {
    "formula-2xn": (
        {"max_n": 9},
        lambda a: 2 * a.max_n,
        lambda checks, a: checks.check_formula(checks.P2_CLOSED, range(1, a.max_n + 1)),
        "PASS",
    ),
    "conjecture-3xn": (
        {"max_n": 7},
        lambda a: 3 * a.max_n,
        lambda checks, a: checks.check_formula(checks.P3_CONJECTURED, range(1, a.max_n + 1)),
        "no counterexample found",
    ),
    "criterion-2xn": (
        {"max_n": 8},
        lambda a: 2 * a.max_n,
        lambda checks, a: checks.check_criterion_2xn(a.max_n),
        "PASS",
    ),
    "power-of-two": (
        {"max_rows": 4, "max_cols": 4},
        lambda a: a.max_rows * a.max_cols,
        lambda checks, a: checks.scan_power_of_two(a.max_rows, a.max_cols),
        "no counterexample found",
    ),
    "relation-eqc": (
        {"rows": 2, "max_n": 8},
        lambda a: a.rows * a.max_n,
        lambda checks, a: checks.check_relation_eqc(a.rows, a.max_n),
        "PASS",
    ),
    "lemma-decomposition": (
        {"max_n": 5},
        lambda a: 2 * a.max_n,
        lambda checks, a: checks.check_lemma_decomposition(a.max_n),
        "PASS",
    ),
}


def _cmd_check(args: argparse.Namespace) -> int:
    from . import checks

    _, squares, run, verdict = _CHECKS[args.subject]
    _guard_cells(squares(args), args)
    report = run(checks, args)
    if args.format == "json":
        print(json.dumps(report.rows, default=str))
    elif args.format == "csv":
        print(",".join(report.header))
        for row in report.rows:
            print(",".join(str(row[key]) for key in report.header))
    else:
        for row in report.rows:
            print("  ".join(f"{key}={row[key]}" for key in report.header))
    if report.failures:
        print("FAIL")
        for failure in report.failures:
            print(failure)
        return EXIT_CHECK_FAILED
    if args.format == "text":
        print(verdict)
    return EXIT_OK


# --- enumerate / matchings -------------------------------------------------------


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.rows < 1 or args.cols < 0:
        raise UsageError("--rows must be >= 1 and --cols >= 0")
    from .diagram import enumerate_diagrams, format_grid
    from .pfaffian import classify

    _guard_cells(args.rows * args.cols, args)
    for diagram in enumerate_diagrams(args.rows, args.cols):
        pf, nul = classify(diagram)
        if args.format == "text":
            print(format_grid(diagram))
            print(
                f"d={diagram.white_count} pfaffian={pf} nullity={nul} "
                f"primitive={'true' if pf else 'false'}"
            )
            print()
        else:
            print(
                json.dumps(
                    {
                        "mask": format_grid(diagram).split("\n"),
                        "d": diagram.white_count,
                        "pfaffian": pf,
                        "nullity": nul,
                        "primitive": pf != 0,
                    }
                )
            )
    return EXIT_OK


def _cmd_matchings(args: argparse.Namespace) -> int:
    from .matching import enumerate_matchings

    diagram = _read_grid(args.grid)
    for matching in enumerate_matchings(diagram):
        edges = sorted(tuple(sorted(edge)) for edge in matching.edges)
        sign = matching.sign
        if args.format == "text":
            rendered = "".join(f"({i},{j})" for i, j in edges)
            print(f"sign={'+1' if sign > 0 else '-1'} edges={rendered}")
        else:
            print(json.dumps({"edges": [list(edge) for edge in edges], "sign": sign}))
    return EXIT_OK


# --- parser -----------------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser, *, workers: bool = False) -> None:
    parser.add_argument(
        "--max-cells", type=_positive_int, default=DEFAULT_MAX_CELLS, help="guardrail on m*n"
    )
    if workers:
        # kept so that existing command lines that pass it still parse
        parser.add_argument(
            "--workers", type=_positive_int, default=1, help="ignored: the census runs in one process"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cauchon",
        description="Exact enumeration of Cauchon diagrams and primitivity of the "
        "corresponding torus-invariant primes of quantum matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="census a single grid shape")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--histogram", action="store_true", help="include the nullity histogram")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    _add_common(p, workers=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("table", help="grid of primitive counts, like a P(m,n) table")
    p.add_argument("--max-rows", type=int, required=True)
    p.add_argument("--max-cols", type=int, required=True)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    _add_common(p, workers=True)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("pfaffian", help="exact report for one grid")
    p.add_argument("--grid", required=True, help="grid file path, or - for stdin")
    p.add_argument("--show-matrix", action="store_true")
    p.add_argument("--show-nullity", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_pfaffian)

    p = sub.add_parser("check", help="verify identities and scan conjectures")
    p.set_defaults(func=_cmd_check)
    subjects = p.add_subparsers(dest="subject", required=True)
    for subject, (sizes, *_) in _CHECKS.items():
        s = subjects.add_parser(subject)
        for name, default in sizes.items():
            s.add_argument("--" + name.replace("_", "-"), type=_positive_int, default=default)
        s.add_argument("--format", choices=["text", "csv", "json"], default="text")
        _add_common(s)

    p = sub.add_parser("enumerate", help="stream every diagram of a shape")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--format", choices=["jsonl", "text"], default="jsonl")
    _add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("matchings", help="stream the perfect matchings of one grid")
    p.add_argument("--grid", required=True, help="grid file path, or - for stdin")
    p.add_argument("--format", choices=["jsonl", "text"], default="jsonl")
    p.set_defaults(func=_cmd_matchings)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GuardrailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARDRAIL
    except BrokenPipeError:
        return EXIT_OK
    except ValueError as exc:
        # GridError is a ValueError that only the grid commands raise, and
        # they have loaded diagram by then; count and table never import it
        from .diagram import GridError

        if not isinstance(exc, GridError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
