#!/usr/bin/env python3
"""Benchmark the exact condensation kernel, the cycle nullity, the census and CLI cold start.

Classifies (Pfaffian + nullity) every diagram of one shape through the
kernel and reports the per-diagram timing. On the same diagrams it times
the nullity that ``pfaffian.nullity`` runs, the even cycles of the toric
permutation folded from the row masks, and counts its mismatches against
the kernel's nullity. Then it times the public census, best of
``--repeats`` like the layers above, which runs no kernel: one transfer
pass over row states, and the bytes each state of the shape's last level
takes under ``tracemalloc``: the peak of the sweep, which holds two levels
at once, and what the last level holds. Last, it times
``cauchon count --rows 5 --cols 4 --histogram --format json`` and
``cauchon table --max-rows 4 --max-cols 5 --format csv`` in fresh
interpreters writing no ``.pyc``, on two copies of the checkout: one built
as the benchmark builds it (``python setup.py build_ext --inplace``, which
byte-compiles the package) and one left unbuilt, so every call compiles
the source. It counts the modules the count command loads beyond
``argparse`` and ``json``, and how many ``cauchon`` modules it takes from
bytecode and how many from source in each copy. Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_backends.py --rows 4 --cols 4

``--transfer-only`` prints the transfer's states and bytes alone, for
shapes too large to classify one diagram at a time:

    PYTHONPATH=src python benchmarks/bench_backends.py --rows 6 --cols 12 --transfer-only
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from cauchon import backend, census
from cauchon.diagram import _iter_row_masks, white_coordinates

ROOT = Path(__file__).resolve().parent.parent
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


def transfer_bytes(width: int, rows: int) -> tuple[int, float, float]:
    """States of the ``rows`` x ``width`` transfer, and its traced peak and held bytes per state.

    The width's step tables are built before tracing starts, so both figures
    count the levels alone: the peak holds the level being built and the one
    before it, the held bytes the last level.
    """
    census._steps(width)
    tracemalloc.start()
    for states in census._sweep(width, rows):
        pass
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return len(states), peak / len(states), held / len(states)


def run_cold(args: list[str], path: str) -> subprocess.CompletedProcess:
    """``python ARGS`` in a fresh interpreter that imports from ``path`` and writes no .pyc."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, check=True)


def imported_modules(args: list[str], path: str) -> set[str]:
    """Every module ``python ARGS`` imports, from the interpreter's -X importtime log."""
    lines = run_cold(["-X", "importtime", *args], path).stderr.splitlines()
    names = {line.split("|")[-1].strip() for line in lines if line.startswith("import time:")}
    return names - {"imported package"}  # the log's header line


def code_origins(args: list[str], path: str) -> tuple[int, int]:
    """``cauchon`` modules ``python ARGS`` takes from bytecode and from source, from its -v log."""
    log = run_cold(["-v", *args], path).stderr
    # bytecode is named by its repr, source by its bare path
    files = re.findall(r"^# code object from '?(.*?)'?$", log, re.M)
    own = [name for name in files if name.startswith(str(Path(path, "cauchon")))]
    bytecode = sum(name.endswith(".pyc") for name in own)
    return bytecode, len(own) - bytecode


def copy_checkout(path: Path, build: bool) -> str:
    """Copy the checkout to ``path`` with no .pyc, built in place if ``build``; returns its import path."""
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(ROOT / name, path / name)
    shutil.copytree(ROOT / "src", path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    if build:
        command = [sys.executable, "setup.py", "build_ext", "--inplace"]
        subprocess.run(command, cwd=path, capture_output=True, check=True)
    return str(path / "src")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=4)
    parser.add_argument("--cols", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--transfer-only", action="store_true")
    args = parser.parse_args()
    width, rows = min(args.rows, args.cols), max(args.rows, args.cols)
    if not args.transfer_only:
        classify(args)

    states, peak, held = transfer_bytes(width, rows)
    perms = census._steps(width)[0]
    print(
        f"transfer    : {states} states at level {rows} of width {width}, "
        f"{peak:.0f} B/state peak, {held:.0f} B/state held (tracemalloc; step tables "
        f"built first: {len(perms) << width} permutation and {1 << 2 * width} parity entries)"
    )
    if not args.transfer_only:
        cold_start(args)


def classify(args: argparse.Namespace) -> None:
    """Time the kernel, the cycle nullity and the census on every diagram of the shape."""
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
    census_time = best_pass(census.run_census, [(args.rows, args.cols)], args.repeats)
    print(
        f"census      : total={record.total} primitive={record.primitive} "
        f"in {census_time:.3f}s (best of {args.repeats})"
    )


def cold_start(args: argparse.Namespace) -> None:
    """Time count and table cold, built and unbuilt; list what the count loads and whence its code."""
    with tempfile.TemporaryDirectory() as tmp:
        copies = {}
        for label, build in (("built", True), ("unbuilt", False)):
            (Path(tmp) / label).mkdir()
            copies[label] = copy_checkout(Path(tmp) / label, build)
        for command in (COLD_COMMAND, COLD_TABLE):
            walls = {label: [] for label in copies}
            for _ in range(args.repeats):
                for label, path in copies.items():
                    start = time.perf_counter()
                    run_cold(command, path)
                    walls[label].append(time.perf_counter() - start)
            print(
                f"cold start  : {1e3 * min(walls['built']):8.1f}ms built (.pyc), "
                f"{1e3 * min(walls['unbuilt']):.1f}ms unbuilt (no .pyc)  "
                f"(min of {args.repeats}, `cauchon {' '.join(command[2:])}`)"
            )
        path = copies["built"]
        extra = imported_modules(COLD_COMMAND, path) - imported_modules(["-c", "import argparse, json"], path)
        origins = {label: code_origins(COLD_COMMAND, path) for label, path in copies.items()}
    # under -m, cauchon.cli runs as __main__ and has no import line of its own
    own = sorted({*(name for name in extra if name.split(".")[0] == "cauchon"), "cauchon.cli"})
    stdlib = sorted(name for name in extra if name.split(".")[0] in sys.stdlib_module_names)
    print(f"  beyond argparse and json the count loads {len(own)} cauchon modules ({', '.join(own)})")
    print(f"  and {len(stdlib)} standard-library modules ({', '.join(stdlib)})")
    print(
        "  its cauchon modules come from bytecode and from source: "
        + ", ".join(f"{label} {bytecode} and {source}" for label, (bytecode, source) in origins.items())
    )


if __name__ == "__main__":
    main()
