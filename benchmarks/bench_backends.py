#!/usr/bin/env python3
"""Benchmark the exact condensation kernel, the cycle nullity, the census and CLI cold start.

Classifies (Pfaffian + nullity) every diagram of one shape through the
kernel and reports the per-diagram timing. On the same diagrams it times
the nullity that ``pfaffian.nullity`` runs, the even cycles of the toric
permutation folded from the row masks, and counts its mismatches against
the kernel's nullity. Then it times the public census, which runs no
kernel: one transfer pass over row states. Last, it times
``cauchon count --rows 5 --cols 4 --histogram --format json`` and
``cauchon table --max-rows 4 --max-cols 5 --format csv`` in fresh
interpreters, on a copy of the package without ``.pyc`` files and writing
none, as the benchmark runs them, counts the modules the count command
loads beyond ``argparse`` and ``json``, and the lines of ``cauchon`` source
it compiles. Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_backends.py --rows 4 --cols 4
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import cauchon
from cauchon import backend, census
from cauchon.diagram import _iter_row_masks, white_coordinates

COLD_COMMAND = ["-m", "cauchon.cli", "count", "--rows", "5", "--cols", "4", "--histogram", "--format", "json"]
COLD_TABLE = ["-m", "cauchon.cli", "table", "--max-rows", "4", "--max-cols", "5", "--format", "csv"]


def best_pass(fn, workload, repeats: int) -> float:
    """Best-of-repeats wall time for ``fn(*args)`` over every args in the workload, in seconds."""
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        for args in workload:
            fn(*args)
        timings.append(time.perf_counter() - start)
    return min(timings)


def run_cold(args: list[str], path: str) -> subprocess.CompletedProcess:
    """``python ARGS`` in a fresh interpreter that imports from ``path`` and writes no .pyc."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, check=True)


def imported_modules(args: list[str], path: str) -> set[str]:
    """Every module ``python ARGS`` imports, from the interpreter's -X importtime log."""
    lines = run_cold(["-X", "importtime", *args], path).stderr.splitlines()
    names = {line.split("|")[-1].strip() for line in lines if line.startswith("import time:")}
    return names - {"imported package"}  # the log's header line


def source_lines(path: str, name: str) -> int:
    """Lines of the source of module ``name`` under ``path``."""
    source = Path(path, *name.split("."))
    source = source / "__init__.py" if source.is_dir() else source.with_suffix(".py")
    return len(source.read_text().splitlines())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=4)
    parser.add_argument("--cols", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    diagrams = list(_iter_row_masks(args.rows, args.cols))
    workload = [white_coordinates(masks, args.cols) for masks in diagrams]
    count = len(workload)
    print(f"shape {args.rows}x{args.cols}: {count} diagrams")

    kernel_time = best_pass(backend.classify_cells, workload, args.repeats)
    print(f"kernel      : {kernel_time:8.3f}s  ({1e6 * kernel_time / count:8.2f} us/diagram)")

    def cycle_nullity(masks):
        return census._even_cycles(census._diagram_wires(args.cols, masks))

    cycles_time = best_pass(cycle_nullity, [(masks,) for masks in diagrams], args.repeats)
    mismatches = sum(
        cycle_nullity(masks) != backend.classify_cells(*cells)[1]
        for masks, cells in zip(diagrams, workload)
    )
    print(
        f"cycles      : {cycles_time:8.3f}s  ({1e6 * cycles_time / count:8.2f} us/diagram, "
        f"{mismatches} mismatches against the kernel)"
    )

    record = census.run_census(args.rows, args.cols)
    states = len(census._transfer(min(args.rows, args.cols), max(args.rows, args.cols)))
    print(
        f"census      : total={record.total} final transfer states={states} "
        f"primitive={record.primitive} in {record.elapsed:.3f}s"
    )

    with tempfile.TemporaryDirectory() as path:
        package = Path(cauchon.__file__).resolve().parent
        shutil.copytree(package, Path(path) / "cauchon", ignore=shutil.ignore_patterns("__pycache__"))
        for command in (COLD_COMMAND, COLD_TABLE):
            walls = []
            for _ in range(args.repeats):
                start = time.perf_counter()
                run_cold(command, path)
                walls.append(time.perf_counter() - start)
            print(f"cold start  : {1e3 * min(walls):8.1f}ms  (min of {args.repeats}, `cauchon {' '.join(command[2:])}`)")
        extra = imported_modules(COLD_COMMAND, path) - imported_modules(["-c", "import argparse, json"], path)
        # under -m, cauchon.cli runs as __main__ and is compiled all the same
        own = sorted({*(name for name in extra if name.split(".")[0] == "cauchon"), "cauchon.cli"})
        lines = {name: source_lines(path, name) for name in own}
    stdlib = sorted(name for name in extra if name.split(".")[0] in sys.stdlib_module_names)
    print(f"  beyond argparse and json the count loads {len(own)} cauchon modules ({', '.join(own)})")
    print(f"  and {len(stdlib)} standard-library modules ({', '.join(stdlib)})")
    compiled = ", ".join(f"{name} {n}" for name, n in lines.items())
    print(f"  it compiles {sum(lines.values())} lines of cauchon source ({compiled})")


if __name__ == "__main__":
    main()
