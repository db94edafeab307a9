"""Command-line surface: censuses, single-diagram reports, identity checks.

All data output is byte-deterministic for a given set of flags: ordering is
fixed and timing goes to stderr, never into the data channel. Exit codes:
0 success, 1 check failure or counterexample, 2 usage error, 3 guardrail
breach, 4 unparseable grid input.

Each command starts a fresh interpreter, so this module imports only
``cauchon.census``, which ``count`` and ``table`` run; every other body
imports what it needs when it runs. ``_COMMANDS`` is the one table of
commands, and ``CHECK_SUBJECTS`` the one table of ``check`` subjects.
``main`` reads a command line of exact flags and plain values itself, from
``_COMMANDS``, and hands every other one, help and usage errors among them,
to the argparse parser of ``build_parser``. ``count`` and ``table`` print JSON
through ``_json``, so a plain call of either loads neither ``argparse`` nor
``json``.
"""

import sys
import time
from types import SimpleNamespace

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


def _json(value: int | list | dict) -> str:
    """``json.dumps(value)`` for what census payloads hold: ints, lists, and dicts with str keys.

    Any other type, bool among them, raises TypeError. Keys are written
    unescaped, as payload keys are names and digit strings.
    """
    if type(value) is int:
        return repr(value)
    if type(value) is list:
        return "[" + ", ".join(map(_json, value)) + "]"
    if type(value) is not dict or not all(type(key) is str for key in value):
        raise TypeError(f"not a census payload: {value!r}")
    return "{" + ", ".join(f'"{key}": {_json(item)}' for key, item in value.items()) + "}"


def _cmd_count(args: SimpleNamespace) -> int:
    start = time.perf_counter()
    record = census.run_census(args.rows, args.cols)
    seconds = time.perf_counter() - start
    if args.format == "csv":
        print(_CSV_HEADER)
        print(_census_csv_row(record))
    elif args.format == "json":
        payload = record.to_payload()
        if not args.histogram:
            payload.pop("nullity_histogram")
        print(_json(payload))
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
    _print_elapsed(seconds)
    return EXIT_OK


def _cmd_table(args: SimpleNamespace) -> int:
    start = time.perf_counter()
    records = census.run_censuses(
        (m, n) for m in range(1, args.max_rows + 1) for n in range(1, args.max_cols + 1)
    )
    seconds = time.perf_counter() - start
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
        print(_json(rows))
    else:
        width = max(len(str(r.primitive)) for r in records) + 2
        header = "m\\n" + "".join(f"{n:>{width}}" for n in range(1, args.max_cols + 1))
        print(header)
        for m in range(1, args.max_rows + 1):
            cells = [r.primitive for r in records if r.m == m]
            print(f"{m:>3}" + "".join(f"{v:>{width}}" for v in cells))
    _print_elapsed(seconds)
    return EXIT_OK


# --- pfaffian -------------------------------------------------------------------


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


def _cmd_pfaffian(args: SimpleNamespace) -> int:
    from .pfaffian import classify, skew_adjacency

    diagram = _read_grid(args.grid)
    pf, nul = classify(diagram)
    primitive = pf != 0
    if args.format == "json":
        import json

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

#: check subject -> (size options with their defaults, the squares the
#: guardrail checks, the check given the ``checks`` module, the text-format
#: verdict when nothing fails)
CHECK_SUBJECTS = {
    "formula-2xn": (
        {"max_n": 9}, lambda a: 2 * a.max_n,
        lambda checks, a: checks.check_formula(checks.P2_CLOSED, range(1, a.max_n + 1)), "PASS",
    ),
    "conjecture-3xn": (
        {"max_n": 7}, lambda a: 3 * a.max_n,
        lambda checks, a: checks.check_formula(checks.P3_CONJECTURED, range(1, a.max_n + 1)), "no counterexample found",
    ),
    "criterion-2xn": (
        {"max_n": 8}, lambda a: 2 * a.max_n,
        lambda checks, a: checks.check_criterion_2xn(a.max_n), "PASS",
    ),
    "power-of-two": (
        {"max_rows": 4, "max_cols": 4}, lambda a: a.max_rows * a.max_cols,
        lambda checks, a: checks.scan_power_of_two(a.max_rows, a.max_cols), "no counterexample found",
    ),
    "relation-eqc": (
        {"rows": 2, "max_n": 8}, lambda a: a.rows * a.max_n,
        lambda checks, a: checks.check_relation_eqc(a.rows, a.max_n), "PASS",
    ),
    "lemma-decomposition": (
        {"max_n": 5}, lambda a: 2 * a.max_n,
        lambda checks, a: checks.check_lemma_decomposition(a.max_n), "PASS",
    ),
}


def _cmd_check(args: SimpleNamespace) -> int:
    from . import checks

    *_, run, verdict = CHECK_SUBJECTS[args.subject]
    report = run(checks, args)
    if args.format == "json":
        import json

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


def _cmd_enumerate(args: SimpleNamespace) -> int:
    from .diagram import enumerate_diagrams, format_grid
    from .pfaffian import classify

    if args.format == "jsonl":
        import json

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


def _cmd_matchings(args: SimpleNamespace) -> int:
    from .matching import enumerate_matchings

    diagram = _read_grid(args.grid)
    if args.format == "jsonl":
        import json

    # edges come with i < j and by ascending i, the order they are written in
    for matching in enumerate_matchings(diagram):
        edges = matching.edges
        sign = matching.sign
        if args.format == "text":
            rendered = "".join(f"({i},{j})" for i, j in edges)
            print(f"sign={'+1' if sign > 0 else '-1'} edges={rendered}")
        else:
            print(json.dumps({"edges": [list(edge) for edge in edges], "sign": sign}))
    return EXIT_OK


# --- usage checks -------------------------------------------------------------------
#
# Each returns the squares the guardrail checks, after the checks on values
# argparse cannot make.


def _shape_cells(args: SimpleNamespace) -> int:
    if args.rows < 1 or args.cols < 0:
        raise UsageError("--rows must be >= 1 and --cols >= 0")
    return args.rows * args.cols


def _count_cells(args: SimpleNamespace) -> int:
    cells = _shape_cells(args)
    if args.histogram and args.format == "csv":
        raise UsageError("--histogram needs --format text or json")
    return cells


def _enumerate_cells(args: SimpleNamespace) -> int:
    cells = _shape_cells(args)
    if args.cols == 0 and args.format == "text":
        # a grid without columns is blank lines, which read as record separators
        raise UsageError("--cols 0 needs --format jsonl")
    return cells


def _table_cells(args: SimpleNamespace) -> int:
    if args.max_rows < 1 or args.max_cols < 1:
        raise UsageError("--max-rows and --max-cols must be >= 1")
    return args.max_rows * args.max_cols


def _check_cells(args: SimpleNamespace) -> int:
    return CHECK_SUBJECTS[args.subject][1](args)


# --- the options of every command ------------------------------------------------------


def _positive_int(text: str) -> int:
    import argparse

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


#: command -> (help line, options in help order, or None for the check
#: subjects; the usage checks, giving the squares the guardrail checks, or
#: None for no guardrail; the body, which returns the exit code)
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
        _cmd_pfaffian,
    ),
    "check": ("verify identities and scan conjectures", None, _check_cells, _cmd_check),
    "enumerate": (
        "stream every diagram of a shape", [_ROWS, _COLS, _STREAM_FORMAT, _MAX_CELLS], _enumerate_cells, _cmd_enumerate
    ),
    "matchings": ("stream the perfect matchings of one grid", [_GRID, _STREAM_FORMAT], None, _cmd_matchings),
}


def _add_options(parser, command: str) -> None:
    options = _COMMANDS[command][1]
    if options is None:
        subjects = parser.add_subparsers(dest="subject", required=True)
        for subject, (sizes, *_) in CHECK_SUBJECTS.items():
            s = subjects.add_parser(subject)
            for name, default in sizes.items():
                s.add_argument("--" + name.replace("_", "-"), type=_positive_int, default=default)
            for flag, kwargs in (_FORMAT, _MAX_CELLS):
                s.add_argument(flag, **kwargs)
        return
    for flag, kwargs in options:
        parser.add_argument(flag, **kwargs)


def build_parser():
    """The parser of every command, which ``main`` builds for each command line ``_read`` refuses."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cauchon",
        description="Exact enumeration of Cauchon diagrams and primitivity of the "
        "corresponding torus-invariant primes of quantum matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, *_) in _COMMANDS.items():
        _add_options(sub.add_parser(command, help=help_line), command)
    return parser


#: the option-spec keys ``_read`` knows
_READ_KEYS = {"type", "required", "default", "choices", "action", "help"}


def _read(argv: list[str]) -> SimpleNamespace | None:
    """``build_parser().parse_args(argv)`` for an argv it can read exactly, else None.

    It reads a command with an option table, then exact flags of that
    command, each at most once. Each flag but a ``store_true`` one takes the
    next token: an integer as ASCII digits, at least 1 for ``_positive_int``,
    one of its ``choices``, or a str that does not start with ``-`` unless
    it is ``-``. Required flags must be given. It refuses every argv of a
    command whose options hold a key it does not know.
    """
    options = _COMMANDS[argv[0]][1] if argv and argv[0] in _COMMANDS else None
    if options is None or any(kwargs.keys() - _READ_KEYS for _, kwargs in options):
        return None
    unread = dict(options)
    values = {"command": argv[0]}
    tokens = iter(argv[1:])
    for flag in tokens:
        kwargs = unread.pop(flag, None)  # a flag given twice is no longer unread
        if kwargs is None:
            return None
        dest, kind = flag[2:].replace("-", "_"), kwargs.get("type")
        if "action" in kwargs:
            if kwargs["action"] != "store_true":
                return None
            values[dest] = True
            continue
        text = next(tokens, None)
        if text is None:
            return None
        if kind is None and (text == "-" or not text.startswith("-")):
            value = text
        elif kind in (int, _positive_int) and text.isascii() and text.isdigit():
            try:
                value = int(text)  # raises beyond sys.get_int_max_str_digits(), as in argparse
            except ValueError:
                return None
            if kind is _positive_int and value < 1:
                return None
        else:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[dest] = value
    for flag, kwargs in unread.items():
        if kwargs.get("required"):
            return None
        values[flag[2:].replace("-", "_")] = kwargs.get("default", False if "action" in kwargs else None)
    return SimpleNamespace(**values)


def _parse(argv: list[str]) -> SimpleNamespace:
    """``build_parser().parse_args(argv)``, read by ``_read`` where it can.

    ``_read`` takes the benchmark's and most scripted command lines, which
    then load no ``argparse``. The full parser takes the rest: help,
    abbreviations, ``--flag=value``, repeated flags, signed or padded
    numbers, and every error, which it reports with its own usage line.
    """
    return _read(argv) or SimpleNamespace(**vars(build_parser().parse_args(argv)))


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    _, _, usage_cells, body = _COMMANDS[args.command]
    try:
        if usage_cells is not None:
            cells = usage_cells(args)
            if cells > args.max_cells:
                raise GuardrailError(cells, args.max_cells)
        return body(args)
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
