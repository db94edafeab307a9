#!/usr/bin/env python3
"""Benchmark the exact condensation kernel, large-matrix builds, the cycle nullity, the census and its transfer, in-process.

Classifies (Pfaffian + nullity) every diagram of one shape through
``backend.classify_cells`` and reports the per-diagram timing, then times
the layers of that call apart, in us per diagram: the line-degree order
(``backend._line_degree_order``, which runs only from ``backend._ORDER_CUT``
white squares on), the build of the matrix that ``classify_cells``
condenses (``backend._ordered_matrix``, the order included, from the cut
on, and ``backend.skew_matrix`` below it) and, on the same matrices, the
Schur kernel (``backend._schur``). On query-large's own
batch, perfbench's seed-1 600 queries of 6x8, 7x7 and 8x8
(``perfbench/inputs.py``, d 27..63), shapes too large to enumerate, all
above the cut, it times the same three layers in us per query. The cut
line draws diagrams of 5x5, 5x6, 6x5 and 6x6 with perfbench's own weighted
sampler and, for each d within three of the cut, reports how many us a
call the line-degree order saves (negative) or costs against label order,
order, build and kernel included: the constant is set where the saving
starts.
On the shape's diagrams it times
the nullity that ``pfaffian.nullity`` runs, the even cycles of the toric
permutation folded from the row masks, and counts its mismatches against
the kernel's nullity. Then it times the public census, best of
``--repeats`` like the layers above, which runs no kernel: one transfer
pass over row states, and the bytes each state of the shape's last level
takes under ``tracemalloc``: the peak of the sweep, which holds two levels
at once, and what the last level holds. It starts no other interpreter:
perfbench times start-up (``wall_s``, ``setup_s`` and, traced,
``cli.startup_s``), and the Tier-1 tests assert what a command loads.
Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_backends.py --rows 4 --cols 4

``--transfer-only`` prints the transfer's states and bytes alone, for
shapes too large to classify one diagram at a time:

    PYTHONPATH=src python benchmarks/bench_backends.py --rows 6 --cols 12 --transfer-only
"""

import argparse
import importlib.util
import random
import sys
import time
import tracemalloc
from pathlib import Path

from cauchon import backend, census
from cauchon.diagram import _iter_row_masks, white_coordinates

#: perfbench's workload inputs, read but not changed here
INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
#: the seed of query-large's batch
QUERY_SEED = 1
#: shapes whose weighted draws put d on both sides of ``backend._ORDER_CUT``, and their seed
CUT_SHAPES = ((5, 5), (5, 6), (6, 5), (6, 6))
CUT_SEED = 25


def best_pass(fn, workload, repeats: int) -> float:
    """Best-of-repeats wall time for ``fn(*args)`` over every args in the workload, in seconds."""
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        for args in workload:
            fn(*args)
        timings.append(time.perf_counter() - start)
    return min(timings)


def layer_times(cells, repeats: int, chunk: int = 4096) -> dict[str, float]:
    """Best-of-repeats seconds to order the squares of ``cells``, to build the matrices ``classify_cells`` condenses and to condense them.

    The build includes the order, which ``order`` times alone. The matrices
    are built ``chunk`` at a time, so a whole shape's diagrams never sit in
    memory at once.
    """
    timings = {"order": [], "build": [], "schur": []}
    for _ in range(repeats):
        totals = dict.fromkeys(timings, 0.0)
        for k in range(0, len(cells), chunk):
            part = cells[k : k + chunk]
            start = time.perf_counter()
            for rows, cols in part:
                if len(rows) >= backend._ORDER_CUT:
                    backend._line_degree_order(rows, cols)
            totals["order"] += time.perf_counter() - start
            start = time.perf_counter()
            matrices = [
                backend._ordered_matrix(rows, cols)[0] if len(rows) >= backend._ORDER_CUT else backend.skew_matrix(rows, cols)
                for rows, cols in part
            ]
            totals["build"] += time.perf_counter() - start
            start = time.perf_counter()
            for a in matrices:
                backend._schur(a, len(a))
            totals["schur"] += time.perf_counter() - start
        for name, total in totals.items():
            timings[name].append(total)
    return {name: min(times) for name, times in timings.items()}


def label_order(rows, cols) -> tuple[int, int]:
    """The condensation of A_C in label order, whatever d: ``classify_cells`` below the cut."""
    return backend._schur(backend.skew_matrix(rows, cols), len(rows))


def line_degree_order(rows, cols) -> tuple[int, int]:
    """The condensation of A_C in line-degree order, whatever d: ``classify_cells`` from the cut on, but the sign."""
    return backend._schur(backend._ordered_matrix(rows, cols)[0], len(rows))


def cut_savings(inputs, repeats: int, per_d: int = 100) -> dict[int, float]:
    """For each d within three of the cut, the us a call that line-degree order saves (negative) against label order.

    The diagrams are drawn with perfbench's weighted sampler, seeded, from
    ``CUT_SHAPES`` until every such d has ``per_d`` of them; each side is
    the best of ``repeats`` passes over them.
    """
    cut = backend._ORDER_CUT
    wanted = range(cut - 3, cut + 3)
    rng = random.Random(CUT_SEED)
    drawn: dict[int, list] = {d: [] for d in wanted}
    while any(len(cells) < per_d for cells in drawn.values()):
        m, n = CUT_SHAPES[rng.randrange(len(CUT_SHAPES))]
        cells = white_coordinates(inputs.random_diagram(rng, m, n), n)
        same_d = drawn.get(len(cells[0]))
        if same_d is not None and len(same_d) < per_d:
            same_d.append(cells)
    return {
        d: 1e6 * (best_pass(line_degree_order, cells, repeats) - best_pass(label_order, cells, repeats)) / per_d
        for d, cells in drawn.items()
    }


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


def classify(args: argparse.Namespace) -> None:
    """Time the kernel, the cycle nullity and the census on every diagram of the shape, and query-large's batch."""
    diagrams = list(_iter_row_masks(args.rows, args.cols))
    workload = [white_coordinates(masks, args.cols) for masks in diagrams]
    count = len(workload)
    print(f"shape {args.rows}x{args.cols}: {count} diagrams")

    kernel_time = best_pass(backend.classify_cells, workload, args.repeats)
    apart = ", ".join(f"{name} {1e6 * t / count:.2f}" for name, t in layer_times(workload, args.repeats).items())
    print(f"kernel      : {kernel_time:8.3f}s  ({1e6 * kernel_time / count:8.2f} us/diagram; {apart} us/diagram)")

    # registered before it runs: its dataclass looks its own module up
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    large = [white_coordinates(masks, n) for _, n, masks in inputs.query_batch(QUERY_SEED)]
    sizes = [len(rows) for rows, _ in large]
    per_query = ", ".join(
        f"{name} {1e6 * t / len(large):8.2f} us/query" for name, t in layer_times(large, args.repeats).items()
    )
    shapes = [f"{m}x{n}" for m, n in inputs.QUERY_SHAPES]
    print(
        f"large       : {per_query}  (best of {args.repeats}, query-large's batch: {len(large)} queries of "
        f"{', '.join(shapes[:-1])} and {shapes[-1]}, seed {QUERY_SEED}, d {min(sizes)}..{max(sizes)})"
    )
    savings = ", ".join(f"d {d} {us:+.1f}" for d, us in cut_savings(inputs, args.repeats).items())
    print(f"cut         : {savings} us a call in line-degree order against label order (cut {backend._ORDER_CUT})")

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


if __name__ == "__main__":
    main()
