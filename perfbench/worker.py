"""Child process of the benchmark: runs the package under test in-process.

    python worker.py query QUERIES SECONDS
        Classify the query batch one diagram at a time through the public
        pfaffian.pfaffian / pfaffian.nullity, repeating the batch until
        SECONDS have passed (at least once), with the machine-speed probe
        of probe.py run before the first batch and after each.

    python worker.py trace census ARG...
    python worker.py trace query QUERIES
        Run the workload untraced and traced, PASSES times each, in-process
        with one worker, with spans recorded around the layer entry points;
        report the best traced pass.

The package must be importable (the benchmark puts its build on PYTHONPATH).
Each mode prints one JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time

from cauchon import parse_grid
from probe import probe

#: (module, attribute, layer span name, kind); "each" spans are aggregated
#: per name, "whole" spans are kept one by one, "gen" times each next()
ENTRY_POINTS = (
    ("cauchon.cli", "main", "cli", "whole"),
    ("cauchon.census", "run_census", "census.shape", "whole"),
    ("cauchon.census", "_census_partition", "census.partition", "whole"),
    ("cauchon.census", "_iter_row_masks", "diagram", "gen"),
    ("cauchon.census", "_classify_masks", "census.coords", "each"),
    ("cauchon.backend", "classify_cells", "backend", "each"),
    ("cauchon.pfaffian", "pfaffian", "pfaffian", "each"),
    ("cauchon.pfaffian", "nullity", "pfaffian", "each"),
)

#: untraced and traced passes each in a traced run
PASSES = 3

#: lru caches whose hit ratio is reported, as (module, attribute)
CACHES = (("cauchon.diagram", "_row_candidates"), ("cauchon.census", "_white_cols"))


class Tracer:
    """Span recorder: a stack of open spans, each summing its children's time."""

    def __init__(self):
        self.stack: list[list] = []  # open spans as [name, children's time]
        self.each: dict[str, list[float]] = {}  # name -> [count, busy, self]
        self.whole: list[tuple[str, str, float, float]] = []  # name, parent, dur, self
        self.kernel_shapes: dict[tuple[int, int], int] = {}  # (d, nullity) -> calls

    def _open(self, name):
        frame = [name, 0.0]
        self.stack.append(frame)
        return frame, time.perf_counter()

    def _close(self, name, kind, start, frame):
        dur = time.perf_counter() - start
        self.stack.pop()
        if self.stack:
            self.stack[-1][1] += dur
        if kind == "whole":
            parent = self.stack[-1][0] if self.stack else ""
            self.whole.append((name, parent, dur, dur - frame[1]))
        else:
            agg = self.each.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - frame[1]

    def wrap(self, fn, name, kind):
        if kind == "gen":
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame, start = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        self._close(name + ".exhausted", kind, start, frame)
                        return
                    self._close(name, kind, start, frame)
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            frame, start = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, kind, start, frame)
        return traced

    def wrap_kernel(self, fn):
        """Kernel span that also counts calls by (dimension, nullity)."""
        traced = self.wrap(fn, "backend", "each")
        shapes = self.kernel_shapes

        def observed(rows, cols):
            result = traced(rows, cols)
            key = (len(rows), result[1])
            shapes[key] = shapes.get(key, 0) + 1
            return result
        return observed


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Patch every entry point that exists; returns (undo list, absent names)."""
    undo = []
    absent = []
    for module_name, attr, name, kind in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            absent.append(f"{module_name}.{attr}")
            continue
        traced = tracer.wrap_kernel(fn) if name == "backend" else tracer.wrap(fn, name, kind)
        setattr(module, attr, traced)
        undo.append((module, attr, fn))
    return undo, absent


def clear_caches() -> None:
    for module_name, attr in CACHES:
        fn = getattr(importlib.import_module(module_name), attr, None)
        if fn is not None and hasattr(fn, "cache_clear"):
            fn.cache_clear()


def cache_stats() -> dict[str, list[int] | None]:
    stats = {}
    for module_name, attr in CACHES:
        fn = getattr(importlib.import_module(module_name), attr, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        stats[attr] = None if info is None else [info.hits, info.misses]
    return stats


def kernel_route() -> dict:
    backend = importlib.import_module("cauchon.backend")
    return {
        "compiled": getattr(backend, "_compiled", None) is not None,
        "max_dim": getattr(backend, "COMPILED_MAX_DIM", None),
        "active": backend.active_backend(),
    }


def load_queries(path: str):
    with open(path, encoding="utf-8") as fh:
        return [parse_grid(text) for text in json.load(fh)]


def classify_batch(diagrams, walls: list[float] | None = None, cpus: list[float] | None = None):
    """(pf, nullity) per diagram; appends each query's wall and CPU seconds."""
    pf_mod = importlib.import_module("cauchon.pfaffian")
    results = []
    clock, cpu_clock = time.perf_counter, time.process_time
    for diagram in diagrams:
        cpu0 = cpu_clock()
        start = clock()
        pf = pf_mod.pfaffian(diagram)
        nul = pf_mod.nullity(diagram)
        if walls is not None:
            walls.append(clock() - start)
            cpus.append(cpu_clock() - cpu0)
        results.append([pf, nul])
    return results


def run_query(path: str, seconds: float) -> dict:
    """Repeat the batch, with a machine-speed probe before it and after each repeat."""
    diagrams = load_queries(path)
    batch_walls, walls, cpus, results = [], [], [], []
    probes = [probe()]
    begin = time.perf_counter()
    while not batch_walls or time.perf_counter() - begin + batch_walls[-1] + probes[-1][0] <= seconds:
        start = time.perf_counter()
        results.append(classify_batch(diagrams, walls, cpus))
        batch_walls.append(time.perf_counter() - start)
        probes.append(probe())
    return {"batch_walls": batch_walls, "walls": walls, "cpus": cpus, "probes": probes, "results": results}


def run_trace(kind: str, args: list[str]) -> dict:
    cli = importlib.import_module("cauchon.cli")
    if kind == "census":
        def once():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(args)
            if code != 0:
                raise SystemExit(f"cauchon {' '.join(args)} exited with {code}")
            return out.getvalue()
    else:
        diagrams = load_queries(args[0])

        def once():
            return classify_batch(diagrams)

    # untraced and traced passes alternate; the best of each is kept, so that
    # load from outside the process does not decide the overhead
    untraced = []
    passes = []
    for _ in range(PASSES):
        clear_caches()
        start = time.perf_counter()
        once()
        untraced.append(time.perf_counter() - start)

        tracer = Tracer()
        undo, absent = install(tracer)
        clear_caches()
        start = time.perf_counter()
        try:
            output = once()
        finally:
            for module, attr, fn in undo:
                setattr(module, attr, fn)
        passes.append((time.perf_counter() - start, tracer, absent, cache_stats(), output))
    traced, tracer, absent, caches, output = min(passes, key=lambda p: p[0])
    return {
        "untraced_wall": min(untraced),
        "traced_wall": traced,
        "passes": PASSES,
        "each": tracer.each,
        "whole": tracer.whole,
        "absent": absent,
        "kernel_shapes": [[d, nul, calls] for (d, nul), calls in tracer.kernel_shapes.items()],
        "kernel_route": kernel_route(),
        "caches": caches,
        "output": output,
    }


def main(argv: list[str]) -> None:
    if argv[0] == "query":
        result = run_query(argv[1], float(argv[2]))
    elif argv[0] == "trace":
        result = run_trace(argv[1], argv[2:])
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
