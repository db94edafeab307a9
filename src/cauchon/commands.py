"""The commands of ``cauchon.cli`` beyond ``count`` and ``table``.

``pfaffian``, ``check``, ``enumerate`` and ``matchings`` run from here, and
only they load this module. ``cauchon.cli`` parses their options and makes
their usage and guardrail checks before ``run`` is called; this module
never imports ``cauchon.cli``, which under ``python -m cauchon.cli`` is
``__main__``, so that every exception its ``main`` catches comes from one
copy of that module. Grid errors are ``diagram.GridError``.
"""

import argparse
import json
import sys

from .diagram import GridError, enumerate_diagrams, format_grid, parse_grid


def _read_grid(spec: str):
    """The diagram in the file ``spec`` (``-`` for stdin); raises GridError."""
    try:
        if spec == "-":
            text = sys.stdin.read()
        else:
            with open(spec, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GridError(f"cannot read grid {spec}: {exc}") from exc
    return parse_grid(text)


# --- pfaffian -------------------------------------------------------------------


def _pfaffian(args: argparse.Namespace) -> bool:
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
    return True


# --- check ----------------------------------------------------------------------

#: subject -> (the check given the ``checks`` module, the text-format verdict
#: when nothing fails); the size options and guardrail are in cauchon.cli
_CHECKS = {
    "formula-2xn": (
        lambda checks, a: checks.check_formula(checks.P2_CLOSED, range(1, a.max_n + 1)),
        "PASS",
    ),
    "conjecture-3xn": (
        lambda checks, a: checks.check_formula(checks.P3_CONJECTURED, range(1, a.max_n + 1)),
        "no counterexample found",
    ),
    "criterion-2xn": (lambda checks, a: checks.check_criterion_2xn(a.max_n), "PASS"),
    "power-of-two": (
        lambda checks, a: checks.scan_power_of_two(a.max_rows, a.max_cols),
        "no counterexample found",
    ),
    "relation-eqc": (lambda checks, a: checks.check_relation_eqc(a.rows, a.max_n), "PASS"),
    "lemma-decomposition": (lambda checks, a: checks.check_lemma_decomposition(a.max_n), "PASS"),
}


def _check(args: argparse.Namespace) -> bool:
    from . import checks

    run, verdict = _CHECKS[args.subject]
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
        return False
    if args.format == "text":
        print(verdict)
    return True


# --- enumerate / matchings -------------------------------------------------------


def _enumerate(args: argparse.Namespace) -> bool:
    from .pfaffian import classify

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
    return True


def _matchings(args: argparse.Namespace) -> bool:
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
    return True


_RUN = {"pfaffian": _pfaffian, "check": _check, "enumerate": _enumerate, "matchings": _matchings}


def run(args: argparse.Namespace) -> bool:
    """Run ``args.command`` as parsed by ``cauchon.cli``; False when a check failed."""
    return _RUN[args.command](args)
