"""Command-line surface: censuses, single-diagram reports, identity checks.

All data output is byte-deterministic for a given set of flags: ordering is
fixed and timing goes to stderr, never into the data channel. Exit codes:
0 success, 1 check failure or counterexample, 2 usage error, 3 guardrail
breach, 4 unparseable grid input.

Each command starts a fresh interpreter that compiles this file from source
when no ``.pyc`` exists, so it holds only what ``count`` and ``table`` run:
their bodies, one table of every command's options, the usage and guardrail
checks, and ``main``. ``main`` builds the parser of the named command alone.
The bodies of ``pfaffian``, ``check``, ``enumerate`` and ``matchings`` live
in ``cauchon.commands``, which only they load.
"""

import argparse
import sys
import time

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


def _print_elapsed(seconds: float) -> None:
    print(f"elapsed: {seconds:.3f}s", file=sys.stderr)


# --- count / table -------------------------------------------------------------

_CSV_HEADER = "m,n,total,primitive,proportion_num,proportion_den"


def _census_csv_row(record: census.CensusRecord) -> str:
    payload = record.to_payload()
    return ",".join(str(payload[key]) for key in _CSV_HEADER.split(","))


def _cmd_count(args: argparse.Namespace) -> int:
    record = census.run_census(args.rows, args.cols)
    if args.format == "csv":
        print(_CSV_HEADER)
        print(_census_csv_row(record))
    elif args.format == "json":
        import json

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
    start = time.perf_counter()
    records = census.run_censuses(
        (m, n) for m in range(1, args.max_rows + 1) for n in range(1, args.max_cols + 1)
    )
    elapsed = time.perf_counter() - start
    if args.format == "csv":
        print(_CSV_HEADER)
        for record in records:
            print(_census_csv_row(record))
    elif args.format == "json":
        import json

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


# --- usage checks -------------------------------------------------------------------
#
# Each returns the squares the guardrail checks, after the checks on values
# argparse cannot make. They stay in this module for every command: main
# catches this module's exceptions, and under ``python -m cauchon.cli`` this
# module is ``__main__``, so ``cauchon.commands`` must not import
# ``cauchon.cli``, which would make second copies of them.


def _shape_cells(args: argparse.Namespace) -> int:
    if args.rows < 1 or args.cols < 0:
        raise UsageError("--rows must be >= 1 and --cols >= 0")
    return args.rows * args.cols


def _count_cells(args: argparse.Namespace) -> int:
    cells = _shape_cells(args)
    if args.histogram and args.format == "csv":
        raise UsageError("--histogram needs --format text or json")
    return cells


def _table_cells(args: argparse.Namespace) -> int:
    if args.max_rows < 1 or args.max_cols < 1:
        raise UsageError("--max-rows and --max-cols must be >= 1")
    return args.max_rows * args.max_cols


# --- the options of every command ------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


_ROWS = ("--rows", {"type": int, "required": True})
_COLS = ("--cols", {"type": int, "required": True})
_GRID = ("--grid", {"required": True, "help": "grid file path, or - for stdin"})
_FORMAT = ("--format", {"choices": ["text", "csv", "json"], "default": "text"})
_STREAM_FORMAT = ("--format", {"choices": ["jsonl", "text"], "default": "jsonl"})
_MAX_CELLS = ("--max-cells", {"type": _positive_int, "default": DEFAULT_MAX_CELLS, "help": "guardrail on m*n"})
# kept so that existing command lines that pass it still parse
_WORKERS = ("--workers", {"type": _positive_int, "default": 1, "help": "ignored: the census runs in one process"})

#: check subject -> (size options with their defaults, squares the guardrail checks)
_CHECK_SIZES = {
    "formula-2xn": ({"max_n": 9}, lambda a: 2 * a.max_n),
    "conjecture-3xn": ({"max_n": 7}, lambda a: 3 * a.max_n),
    "criterion-2xn": ({"max_n": 8}, lambda a: 2 * a.max_n),
    "power-of-two": ({"max_rows": 4, "max_cols": 4}, lambda a: a.max_rows * a.max_cols),
    "relation-eqc": ({"rows": 2, "max_n": 8}, lambda a: a.rows * a.max_n),
    "lemma-decomposition": ({"max_n": 5}, lambda a: 2 * a.max_n),
}

#: command -> (help line, options in help order, or None for the check
#: subjects; the usage checks, giving the squares the guardrail checks, or
#: None for no guardrail; the body, or None for one in cauchon.commands)
_COMMANDS = {
    "count": (
        "census a single grid shape",
        [_ROWS, _COLS, ("--histogram", {"action": "store_true", "help": "include the nullity histogram"}),
         _FORMAT, _MAX_CELLS, _WORKERS],
        _count_cells,
        _cmd_count,
    ),
    "table": (
        "grid of primitive counts, like a P(m,n) table",
        [("--max-rows", {"type": int, "required": True}), ("--max-cols", {"type": int, "required": True}),
         _FORMAT, _MAX_CELLS, _WORKERS],
        _table_cells,
        _cmd_table,
    ),
    "pfaffian": (
        "exact report for one grid",
        [_GRID, ("--show-matrix", {"action": "store_true"}), ("--show-nullity", {"action": "store_true"}),
         ("--format", {"choices": ["text", "json"], "default": "text"})],
        None,
        None,
    ),
    "check": (
        "verify identities and scan conjectures",
        None,
        lambda a: _CHECK_SIZES[a.subject][1](a),
        None,
    ),
    "enumerate": ("stream every diagram of a shape", [_ROWS, _COLS, _STREAM_FORMAT, _MAX_CELLS], _shape_cells, None),
    "matchings": ("stream the perfect matchings of one grid", [_GRID, _STREAM_FORMAT], None, None),
}


def _add_options(parser: argparse.ArgumentParser, command: str) -> None:
    options = _COMMANDS[command][1]
    if options is None:
        subjects = parser.add_subparsers(dest="subject", required=True)
        for subject, (sizes, _) in _CHECK_SIZES.items():
            s = subjects.add_parser(subject)
            for name, default in sizes.items():
                s.add_argument("--" + name.replace("_", "-"), type=_positive_int, default=default)
            for flag, kwargs in (_FORMAT, _MAX_CELLS):
                s.add_argument(flag, **kwargs)
        return
    for flag, kwargs in options:
        parser.add_argument(flag, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, which ``main`` builds only when argv names none."""
    parser = argparse.ArgumentParser(
        prog="cauchon",
        description="Exact enumeration of Cauchon diagrams and primitivity of the "
        "corresponding torus-invariant primes of quantum matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, *_) in _COMMANDS.items():
        _add_options(sub.add_parser(command, help=help_line), command)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building only the named command's parser.

    Its parser is the one ``build_parser`` adds for it, with the same prog;
    arguments it does not know go to the full parser, which reports them
    with its own usage line.
    """
    if not argv or argv[0] not in _COMMANDS:
        return build_parser().parse_args(argv)
    parser = argparse.ArgumentParser(prog=f"cauchon {argv[0]}")
    _add_options(parser, argv[0])
    args, extras = parser.parse_known_args(argv[1:])
    if extras:
        return build_parser().parse_args(argv)
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    _, _, usage_cells, body = _COMMANDS[args.command]
    try:
        if usage_cells is not None:
            cells = usage_cells(args)
            if cells > args.max_cells:
                raise GuardrailError(cells, args.max_cells)
        if body is not None:
            return body(args)
        from . import commands

        return EXIT_OK if commands.run(args) else EXIT_CHECK_FAILED
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
