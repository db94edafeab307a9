#!/usr/bin/env python3
"""Benchmark the exact condensation kernel and the census on one shape.

Classifies (Pfaffian + nullity) every diagram of one shape through the
kernel and reports the per-diagram timing, then times the public census,
which runs no kernel: one transfer pass over row states.
Run from the repository root:

    python benchmarks/bench_backends.py --rows 4 --cols 4
"""

import argparse
import time

from cauchon import backend, census
from cauchon.diagram import _iter_row_masks, white_coordinates


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

    kernel_time = time_kernel(backend.classify_cells, workload, args.repeats)
    print(f"kernel      : {kernel_time:8.3f}s  ({1e6 * kernel_time / count:8.2f} us/diagram)")

    record = census.run_census(args.rows, args.cols)
    states = len(census._transfer(min(args.rows, args.cols), max(args.rows, args.cols)))
    print(
        f"census      : total={record.total} final transfer states={states} "
        f"primitive={record.primitive} in {record.elapsed:.3f}s"
    )


if __name__ == "__main__":
    main()
