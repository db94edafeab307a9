#!/usr/bin/env python3
"""Benchmark the compiled condensation kernel against the pure-Python one.

Classifies (Pfaffian + nullity) every diagram of one shape through both
kernels and reports per-diagram timings, then times the public census,
which runs no kernel: one transfer pass over row states.
Run from the repository root:

    python benchmarks/bench_backends.py --rows 4 --cols 4
"""

import argparse
import time

from cauchon import _kernel_py, census
from cauchon.diagram import _iter_row_masks, white_coordinates

try:
    from cauchon import _kernel as compiled
except ImportError:
    compiled = None


def time_kernel(classify, workload, repeats: int) -> float:
    """Best-of-repeats wall time for one pass over the workload, in seconds."""
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        for rows, cols in workload:
            classify(rows, cols)
        timings.append(time.perf_counter() - start)
    return min(timings)


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

    py_time = time_kernel(_kernel_py.classify_cells, workload, args.repeats)
    print(f"pure python : {py_time:8.3f}s  ({1e6 * py_time / count:8.2f} us/diagram)")

    if compiled is None:
        print("compiled    : not built (pip install -e . builds it when Cython is present)")
    else:
        c_time = time_kernel(compiled.classify_cells, workload, args.repeats)
        print(f"compiled    : {c_time:8.3f}s  ({1e6 * c_time / count:8.2f} us/diagram)")
        print(f"speedup     : {py_time / c_time:8.2f}x")

        for rows, cols in workload:
            assert compiled.classify_cells(rows, cols) == _kernel_py.classify_cells(rows, cols)
        print("agreement   : identical results on the whole workload")

    record = census.run_census(args.rows, args.cols)
    states = len(census._transfer(min(args.rows, args.cols), max(args.rows, args.cols)))
    print(
        f"census      : total={record.total} final transfer states={states} "
        f"primitive={record.primitive} in {record.elapsed:.3f}s"
    )


if __name__ == "__main__":
    main()
