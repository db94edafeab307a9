#!/usr/bin/env python3
"""Census benchmark: build the package, run one workload, check and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Set-up copies the checkout to
.perfbench-work/tree and builds it there with the repository's own step
(`python setup.py build_ext --inplace`), so whatever kernel that step
produces is what runs, and nothing lands under src/. Set-up is repeated
and its median reported as setup_s.

With --trace 0 the workload repeats its fixed work for S seconds (at least
once) with no tracing and reports the end-to-end metrics. Every repeat, and
every set-up, is normalised by the machine-speed probe of probe.py run just
before and after it, and each metric is the median over the run. With --trace 1 it
runs once untraced as a subprocess, then once untraced and once traced
in-process with one worker (see worker.py), and reports the per-layer
metrics, including the tracing overhead. Every output is checked against
the benchmark's own references outside the timed region. The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import inputs
import reference
from probe import REFERENCE_S, probe

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
TREE = WORK / "tree"
WORKER = Path(__file__).resolve().parent / "worker.py"
PROBE = Path(__file__).resolve().parent / "probe.py"
PY = sys.executable
SETUPS = 7
STARTUPS = 5

#: census workloads: CLI arguments, shapes they cover, pool workers. Each
#: run repeats the command, so a run holds several repeats and reports their
#: best: load from other tenants of a shared VM slows single repeats by up to 40 %.
CENSUS = {
    "census-tall": (
        ["count", "--rows", "5", "--cols", "4", "--histogram", "--format", "json", "--workers", "1"],
        [(5, 4)],
        1,
    ),
    "census-wide": (
        ["count", "--rows", "2", "--cols", "9", "--histogram", "--format", "json", "--workers", "1"],
        [(2, 9)],
        1,
    ),
    "table-pool": (
        ["table", "--max-rows", "4", "--max-cols", "5", "--workers", "2", "--format", "csv"],
        [(m, n) for m in range(1, 5) for n in range(1, 6)],
        2,
    ),
}
QUERY = "query-large"
WORKLOADS = [*CENSUS, QUERY]

#: entry point each per-layer metric is measured at; absent ones are reported so
LAYER_SOURCE = {
    "diagram.enum_us_per_diagram": "cauchon.census._iter_row_masks",
    "diagram.self_s": "cauchon.census._iter_row_masks",
    "census.coords_us_per_diagram": "cauchon.census._classify_masks",
    "census.partition_count": "cauchon.census._census_partition",
    "census.partition_max_s": "cauchon.census._census_partition",
    "census.merge_s": "cauchon.census.run_census",
    "backend.kernel_us_per_call": "cauchon.backend.classify_cells",
    "backend.self_s": "cauchon.backend.classify_cells",
    "backend.calls": "cauchon.backend.classify_cells",
    "backend.calls_per_diagram": "cauchon.backend.classify_cells",
    "backend.compiled_calls": "cauchon.backend.classify_cells",
    "backend.python_calls": "cauchon.backend.classify_cells",
    "backend.fallback_calls": "cauchon.backend.classify_cells",
    "backend.update_ops": "cauchon.backend.classify_cells",
    "pfaffian.query_us": "cauchon.pfaffian.pfaffian",
    "pfaffian.self_s": "cauchon.pfaffian.pfaffian",
    "cli.self_s": "cauchon.cli.main",
}


class BenchError(Exception):
    """The program under test could not be built or run."""


@dataclass
class Child:
    stdout: str
    wall: float
    cpu: float
    rss_mb: float


def run_child(cmd: list[str], env: dict, cwd: Path = WORK) -> Child:
    """Run to completion; CPU and peak RSS cover the child and its reaped children."""
    err_path = WORK / "child.err"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        tail = err_path.read_text(errors="replace")[-2000:]
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{tail}")
    return Child(out.decode(), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


class Gate:
    """Outputs checked and failed, summed over every check of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, result) -> None:
        checked, failed, errors = result
        self.attempted += checked
        self.failed += failed
        self.errors += errors


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CAUCHON_")}
    env["PYTHONPATH"] = str(TREE / "src")
    return env


WARMUP = ["count", "--rows", "3", "--cols", "4", "--histogram", "--format", "json", "--workers", "1"]


def set_up(env: dict, gate: Gate) -> tuple[list[float], str]:
    """Copy, build, import and warm up SETUPS times; returns the times and the kernel."""
    ignore = shutil.ignore_patterns(
        ".git", WORK.name, "perfbench", ".bench_build", "__pycache__", "*.so", "build", ".pytest_cache", ".hypothesis"
    )
    warm_shapes = reference.Shapes([(3, 4)])
    times = []
    kernel = ""
    probes = [probe()[0]]
    for _ in range(SETUPS):
        shutil.rmtree(TREE, ignore_errors=True)
        start = time.perf_counter()
        shutil.copytree(ROOT, TREE, ignore=ignore)
        run_child([PY, "setup.py", "build_ext", "--inplace"], env, cwd=TREE)
        found = run_child(
            [PY, "-c", "import cauchon, cauchon.cli; print(cauchon.active_backend(), cauchon.__file__)"],
            env,
        )
        warm = run_child([PY, "-m", "cauchon.cli", *WARMUP], env)
        times.append(time.perf_counter() - start)
        probes.append(probe()[0])
        kernel, path = found.stdout.split()
        if not Path(path).resolve().is_relative_to(TREE.resolve()):
            raise BenchError(f"imported cauchon from {path}, not from the build at {TREE}")
        gate.add(reference.check_count(warm.stdout, (3, 4), warm_shapes))
    return normalise(times, probes), kernel


# --- statistics and reporting --------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def spread(values) -> str:
    """Median, the highest percentile with ten samples beyond it, and the count."""
    n = len(values)
    for q in (99.9, 99, 98, 95, 90, 75):
        if n * (1 - q / 100) >= 10:
            tail = f"p{q:g} {percentile(values, q):.6g}"
            break
    else:
        tail = f"max {max(values):.6g}"
    return f"median {statistics.median(values):.6g}, {tail}, n={n}"


class Report:
    def __init__(self):
        self.metrics: dict[str, dict] = {}
        self.lines: list[str] = []

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append(f"  {name:<32} {value:>14.6g} {unit:<7} {note}")


# --- timed runs ------------------------------------------------------------------


def normalise(times, probes) -> list[float]:
    """Each time over the mean of the probes taken just before and after it.

    ``probes`` holds one more entry than ``times``: probe, time, probe, time,
    ..., probe. The quotient, times REFERENCE_S, is the time on a machine
    where the probe takes REFERENCE_S, so load from outside that slows the
    program and the probe alike cancels out (see probe.py).
    """
    return [t * 2 * REFERENCE_S / (probes[i] + probes[i + 1]) for i, t in enumerate(times)]


def report_times(report: Report, walls, cpus, probes, rss_mb: float, units: int, what: str) -> None:
    """End-to-end timings of one run, normalised by the machine-speed probe.

    ``walls[b][r]`` and ``cpus[b][r]`` are the seconds of request r in repeat
    b of the fixed work, and ``probes[b]``/``probes[b + 1]`` the probe's
    (wall, CPU) seconds just before and after repeat b. On a shared 2-vCPU VM
    load from other tenants slowed the whole machine, CPU time included, by
    up to 40 % for stretches from under a second to minutes; across runs of
    the same code even the best repeat of a 20 s run spread by up to 0.48
    (interquartile range over median). Normalising each repeat by the probes
    around it and taking the median over the run's repeats cancels that. The
    raw best and median repeat are printed beside each figure.
    """
    # per repeat: the factor that normalises any time measured in it
    wall_factor = normalise([1.0] * len(walls), [p[0] for p in probes])
    cpu_factor = normalise([1.0] * len(cpus), [p[1] for p in probes])
    raw = [sum(w) for w in walls]
    norm = [t * f for t, f in zip(raw, wall_factor)]
    wall = statistics.median(norm)
    note = f"normalised, {spread(norm)} repeats; raw best {min(raw):.6g}, raw median {statistics.median(raw):.6g}"
    report.add("wall_s", wall, "s", f"{note}; {what}")
    report.add("us_per_diagram", wall / units * 1e6, "us", f"{units} diagrams")
    raw_cpu = [sum(c) for c in cpus]
    report.add("cpu_s", statistics.median(t * f for t, f in zip(raw_cpu, cpu_factor)), "s",
               f"normalised, process and its children; raw best {min(raw_cpu):.6g}")
    report.add("peak_rss_mb", rss_mb, "MB", "largest process")
    lat = [statistics.median(w[r] * f for w, f in zip(walls, wall_factor)) * 1e3 for r in range(len(walls[0]))]
    note = f"{len(lat)} distinct requests, each the normalised median of {len(walls)} repeats"
    report.add("query_p50_ms", statistics.median(lat), "ms", note)
    report.add("query_p99_ms", percentile(lat, 99), "ms", spread(lat))


class Probes:
    """The machine-speed probe, sized to the workload.

    With one worker it runs in this process. With a pool it runs on as many
    CPUs as the pool has workers, at once, one pinned server each (see
    probe.py), and reports the mean of their times: a pool is slowed by load
    on any CPU it runs on, not only on the one this process happens to use.
    """

    def __init__(self, workers: int):
        cpus = sorted(os.sched_getaffinity(0))[:workers]
        self.servers: list[subprocess.Popen] = []
        if len(cpus) < 2:
            return
        try:
            for cpu in cpus:
                self.servers.append(subprocess.Popen(
                    [PY, str(PROBE), str(cpu)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
                ))
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        for server in self.servers:
            server.stdin.close()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
            server.stdout.close()
        self.servers = []

    def __call__(self) -> tuple[float, float]:
        if not self.servers:
            return probe()
        for server in self.servers:
            server.stdin.write("probe\n")
            server.stdin.flush()
        lines = [server.stdout.readline().split() for server in self.servers]
        if not all(len(line) == 2 for line in lines):
            raise BenchError("a probe server stopped")
        return tuple(statistics.mean(float(line[i]) for line in lines) for i in (0, 1))


def timed_census(name: str, seconds: float, env: dict, report: Report, gate: Gate) -> None:
    argv, shape_list, workers = CENSUS[name]
    shapes = reference.Shapes(shape_list)
    reps: list[Child] = []
    with Probes(workers) as probe_now:
        probes = [probe_now()]
        begin = time.perf_counter()
        while not reps or time.perf_counter() - begin + reps[-1].wall + probes[-1][0] <= seconds:
            reps.append(run_child([PY, "-m", "cauchon.cli", *argv], env))
            probes.append(probe_now())
    for rep in reps:
        gate.add(check_census(name, rep.stdout, shapes))
    # the request is the CLI invocation itself
    report_times(report, [[r.wall] for r in reps], [[r.cpu] for r in reps], probes,
                 max(r.rss_mb for r in reps), shapes.props.diagrams, f"`cauchon {' '.join(argv)}`")


def check_census(name: str, stdout: str, shapes: reference.Shapes):
    if name == "table-pool":
        return reference.check_table(stdout, shapes)
    return reference.check_count(stdout, CENSUS[name][1][0], shapes)


def write_queries(seed: int):
    batch = inputs.query_batch(seed)
    path = WORK / "queries.json"
    path.write_text(json.dumps([inputs.grid_text(n, masks) for _, n, masks in batch]))
    return batch, path


def timed_query(seed: int, seconds: float, env: dict, report: Report, gate: Gate) -> None:
    batch, path = write_queries(seed)
    child = run_child([PY, str(WORKER), "query", str(path), str(seconds)], env)
    result = json.loads(child.stdout)
    gate.add(reference.check_queries(result["results"], reference.query_oracle(batch)))
    size = len(batch)
    walls, cpus = result["walls"], result["cpus"]
    report_times(report, [walls[i : i + size] for i in range(0, len(walls), size)],
                 [cpus[i : i + size] for i in range(0, len(cpus), size)], result["probes"], child.rss_mb,
                 size, f"batches of {size} queries (pfaffian + nullity each)")


# --- traced run ------------------------------------------------------------------


@lru_cache(maxsize=None)
def update_ops(d: int, rank: int) -> int:
    """Condensation updates: each pivot pair at step s rewrites C(d - s - 2, 2) entries."""
    return sum(math.comb(d - s - 2, 2) for s in range(0, rank, 2))


def traced(name: str, seed: int, env: dict, report: Report, gate: Gate) -> None:
    startup = [run_child([PY, "-c", "import cauchon.cli"], env).wall for _ in range(STARTUPS)]
    if name == QUERY:
        batch, path = write_queries(seed)
        oracle = reference.query_oracle(batch)
        props = inputs.query_properties(batch)
        plain = run_child([PY, str(WORKER), "query", str(path), "0"], env)
        plain_result = json.loads(plain.stdout)
        gate.add(reference.check_queries(plain_result["results"], oracle))
        plain_wall, plain_cpu = plain_result["batch_walls"][0], sum(plain_result["cpus"])
        workers, stdout_bytes = 1, 0
        trace = json.loads(run_child([PY, str(WORKER), "trace", "query", str(path)], env).stdout)
        gate.add(reference.check_queries([trace["output"]], oracle))
        queries = diagrams = len(batch)
    else:
        argv, shape_list, workers = CENSUS[name]
        shapes = reference.Shapes(shape_list)
        props = shapes.props
        plain = run_child([PY, "-m", "cauchon.cli", *argv], env)
        gate.add(check_census(name, plain.stdout, shapes))
        plain_wall, plain_cpu, stdout_bytes = plain.wall, plain.cpu, len(plain.stdout.encode())
        serial = argv[: argv.index("--workers") + 1] + ["1"] + argv[argv.index("--workers") + 2 :]
        trace = json.loads(run_child([PY, str(WORKER), "trace", "census", *serial], env).stdout)
        gate.add(check_census(name, trace["output"], shapes))
        queries, diagrams = 0, props.diagrams

    each, whole = trace["each"], trace["whole"]

    def agg(key):
        return each.get(key, [0, 0.0, 0.0])

    def spans(key):
        return [span for span in whole if span[0] == key]

    gen, gen_end = agg("diagram"), agg("diagram.exhausted")
    coords, kernel, pf = agg("census.coords"), agg("backend"), agg("pfaffian")
    parts, shape_spans, cli_spans = spans("census.partition"), spans("census.shape"), spans("cli")
    route = trace["kernel_route"]
    routed = {"compiled": 0, "python": 0, "fallback": 0}
    ops = 0
    for d, nul, calls in trace["kernel_shapes"]:
        key = "python" if not route["compiled"] else "compiled" if d <= route["max_dim"] else "fallback"
        routed[key] += calls
        ops += calls * update_ops(d, d - nul)

    def ratio(cache):
        hits, misses = trace["caches"].get(cache) or (0, 0)
        return hits / (hits + misses) if hits + misses else 0.0

    absent = set(trace["absent"])
    add = report.add
    add("diagram.enum_us_per_diagram", (gen[1] + gen_end[1]) / diagrams * 1e6, "us",
        f"{gen[0]} diagrams yielded")
    add("diagram.self_s", gen[2] + gen_end[2], "s")
    add("diagram.row_candidates_hit_ratio", ratio("_row_candidates"), "ratio", "cache_info() of the traced pass")
    add("census.coords_us_per_diagram", coords[2] / diagrams * 1e6, "us", "_classify_masks minus the kernel")
    add("census.self_s", coords[2] + sum(s[3] for s in parts + shape_spans), "s")
    add("census.partition_count", len(parts), "count")
    add("census.partition_max_s", max((s[2] for s in parts), default=0.0), "s",
        spread([s[2] for s in parts]) if parts else "")
    add("census.pool_cpu_util", plain_cpu / (plain_wall * workers), "ratio",
        f"untraced run: cpu {plain_cpu:.4g} s / (wall {plain_wall:.4g} s x {workers} workers)")
    add("census.merge_s", sum(s[3] for s in shape_spans), "s", "run_census self time")
    add("census.white_cols_hit_ratio", ratio("_white_cols"), "ratio", "cache_info() of the traced pass")
    add("backend.kernel_us_per_call", kernel[1] / kernel[0] * 1e6 if kernel[0] else 0.0, "us",
        f"kernel: {route['active']}")
    add("backend.self_s", kernel[2], "s")
    add("backend.calls", kernel[0], "count")
    add("backend.calls_per_diagram", kernel[0] / diagrams, "ratio", "ideal 1.0")
    add("backend.compiled_calls", routed["compiled"], "count")
    add("backend.python_calls", routed["python"], "count")
    add("backend.fallback_calls", routed["fallback"], "count", f"compiled kernel present, d > {route['max_dim']}")
    add("backend.update_ops", ops, "count", "computed from each call's d and rank, not counted")
    add("pfaffian.query_us", pf[1] / queries * 1e6 if queries else 0.0, "us", f"{pf[0]} public calls")
    add("pfaffian.self_s", pf[2], "s")
    add("cli.startup_s", statistics.median(startup), "s", spread(startup) + ", python -c 'import cauchon.cli'")
    add("cli.self_s", sum(s[3] for s in cli_spans), "s", "cli.main minus the spans below it")
    add("cli.stdout_bytes", stdout_bytes, "bytes")
    add("input.black_column_share", props.black_column / props.diagrams, "ratio", "exact")
    add("input.black_line_share", props.black_line / props.diagrams, "ratio", "all-black row or column")
    add("input.mean_d", props.sum_d / props.diagrams, "squares", "white squares per diagram")
    add("input.max_d", props.max_d, "squares")
    add("input.share_d_gt_44", props.d_gt_44 / props.diagrams, "ratio")
    add("trace.overhead_s", trace["traced_wall"] - trace["untraced_wall"], "s",
        f"in-process, one worker, best of {trace['passes']} passes each: "
        f"traced {trace['traced_wall']:.4g} s - untraced {trace['untraced_wall']:.4g} s")
    add("trace.absent_entry_points", len(absent), "count", ", ".join(sorted(absent)))
    for i, line in enumerate(report.lines):
        metric = line.split()[0]
        if LAYER_SOURCE.get(metric) in absent:
            report.lines[i] = f"  {metric:<32} {'absent':>14} ({LAYER_SOURCE[metric]} not found)"


# --- main ------------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "cauchon").is_dir():
        print(f"no cauchon source checkout at {ROOT}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = child_env()
    gate = Gate()
    report = Report()
    try:
        setups, kernel = set_up(env, gate)
        if args.trace:
            traced(args.workload, args.seed, env, report, gate)
        else:
            report.add("setup_s", statistics.median(setups), "s",
                       "normalised; " + spread(setups) + ", copy + setup.py build_ext + import + warm-up")
            if args.workload == QUERY:
                timed_query(args.seed, args.seconds, env, report, gate)
            else:
                timed_census(args.workload, args.seconds, env, report, gate)
            report.add("pass_rate", (gate.attempted - gate.failed) / gate.attempted, "ratio",
                       f"error_rate {gate.failed / gate.attempted:.6g} = {gate.failed}/{gate.attempted} outputs")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    seed_note = "" if args.workload == QUERY else " (unused: the census is exhaustive)"
    print(f"workload {args.workload}  seed {args.seed}{seed_note}  kernel {kernel}  trace {args.trace}")
    print("\n".join(report.lines))
    for error in gate.errors[:20]:
        print(f"  MISMATCH {error}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": report.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
