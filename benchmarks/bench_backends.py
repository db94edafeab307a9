#!/usr/bin/env python3
"""Benchmark the exact condensation kernel, the census and CLI cold start.

Classifies (Pfaffian + nullity) every diagram of one shape through the
kernel and reports the per-diagram timing, then times the public census,
which runs no kernel: one transfer pass over row states. Last, it times
``cauchon count --rows 5 --cols 4 --histogram --format json`` in a fresh
interpreter, on a copy of the package without ``.pyc`` files and writing
none, as the benchmark runs it, and counts the modules that run loads beyond
``argparse`` and ``json``. Run from the repository root:

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


def time_kernel(classify, workload, repeats: int) -> float:
    """Best-of-repeats wall time for one pass over the workload, in seconds."""
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        for rows, cols in workload:
            classify(rows, cols)
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=4)
    parser.add_argument("--cols", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    workload = [
        white_coordinates(masks, args.cols)
        for masks in _iter_row_masks(args.rows, args.cols)
    ]
    count = len(workload)
    print(f"shape {args.rows}x{args.cols}: {count} diagrams")

    kernel_time = time_kernel(backend.classify_cells, workload, args.repeats)
    print(f"kernel      : {kernel_time:8.3f}s  ({1e6 * kernel_time / count:8.2f} us/diagram)")

    record = census.run_census(args.rows, args.cols)
    states = len(census._transfer(min(args.rows, args.cols), max(args.rows, args.cols)))
    print(
        f"census      : total={record.total} final transfer states={states} "
        f"primitive={record.primitive} in {record.elapsed:.3f}s"
    )

    with tempfile.TemporaryDirectory() as path:
        package = Path(cauchon.__file__).resolve().parent
        shutil.copytree(package, Path(path) / "cauchon", ignore=shutil.ignore_patterns("__pycache__"))
        walls = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            run_cold(COLD_COMMAND, path)
            walls.append(time.perf_counter() - start)
        extra = imported_modules(COLD_COMMAND, path) - imported_modules(["-c", "import argparse, json"], path)
    own = sorted(name for name in extra if name.split(".")[0] == "cauchon")
    stdlib = sorted(name for name in extra if name.split(".")[0] in sys.stdlib_module_names)
    print(f"cold start  : {1e3 * min(walls):8.1f}ms  (min of {args.repeats}, `cauchon {' '.join(COLD_COMMAND[2:])}`)")
    print(f"  beyond argparse and json it loads {len(own)} cauchon modules ({', '.join(own)})")
    print(f"  and {len(stdlib)} standard-library modules ({', '.join(stdlib)})")


if __name__ == "__main__":
    main()
