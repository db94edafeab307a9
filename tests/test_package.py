"""The package's import graph, the functions the commands reach, and the lazy public API.

These run in child interpreters, because the test process has long loaded
every submodule and would hide a lazy import that is missing or broken, and
has filled caches that would hide a call.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cauchon
from cauchon import CauchonDiagram, MalformedMatchingError, Matching, NotCauchonError, SkewAdjacency, backend
from cauchon.checks import CheckReport
from cauchon.cli import CHECK_SUBJECTS

SRC = str(Path(cauchon.__file__).resolve().parents[1])

#: modules the count path must not load: the rest of the package, the
#: standard-library modules only it needs, and the ``__future__`` that a
#: ``from __future__`` import in the CLI or the census would load
HEAVY = (
    "__future__",
    "dataclasses",
    "inspect",
    "fractions",
    "decimal",
    "cauchon.diagram",
    "cauchon.matching",
    "cauchon.pfaffian",
    "cauchon.criterion",
    "cauchon.backend",
    "cauchon.checks",
)

#: standard-library modules a command line the CLI reads itself must not
#: load: argparse (and the gettext it imports) parse only what the CLI
#: cannot read, and count and table write their JSON without json
PARSING = ("argparse", "gettext", "json")

#: runs the CLI as ``python -m cauchon.cli ARGV`` would (or only imports it,
#: for no ARGV) and prints the exit code and which of the comma-separated
#: watched modules it loaded; it imports none of PARSING itself, so that the
#: CLI's own imports of them show
GRAPH_CHILD = """
import runpy, sys
watched, argv = set(sys.argv[1].split(",")), sys.argv[2:]
code = 0
if argv:
    sys.argv = ["cauchon", *argv]
    try:
        runpy.run_module("cauchon.cli", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
else:
    import cauchon.cli
print(code, *sorted(watched & set(sys.modules)))
"""


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    """``python ARGS`` in a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize(
    "argv",
    [
        # the benchmark's census-tall, census-wide and table-pool commands
        ["count", "--rows", "5", "--cols", "4", "--histogram", "--format", "json", "--workers", "1"],
        ["count", "--rows", "2", "--cols", "9", "--histogram", "--format", "json", "--workers", "1"],
        ["table", "--max-rows", "4", "--max-cols", "5", "--workers", "2", "--format", "csv"],
        ["count", "--rows", "3", "--cols", "4"],
        [],
        ["count", "--rows", "3", "--cols", "4", "--format", "text"],
        # the benchmark's warm-up
        ["count", "--rows", "3", "--cols", "4", "--histogram", "--format", "json", "--workers", "1"],
    ],
)
def test_count_and_table_load_only_the_census(argv):
    done = run_child(["-c", GRAPH_CHILD, ",".join([*HEAVY, *PARSING]), *argv])
    assert done.returncode == 0, done.stderr
    code, *loaded = done.stdout.splitlines()[-1].split()
    assert code == "0", done.stderr
    assert loaded == []


def test_a_usage_error_still_loads_argparse():
    # the CLI hands what it cannot read to the full parser, which reports
    # the error or prints the help; building it, check subjects included,
    # loads no other module of the package and no json
    watched = "argparse,cauchon.checks,cauchon.diagram,cauchon.pfaffian,dataclasses,inspect,json"
    for argv, code in [(["count", "--rows", "x", "--cols", "2"], "2"), (["count", "--help"], "0")]:
        done = run_child(["-c", GRAPH_CHILD, watched, *argv])
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1].split() == [code, "argparse"], argv


@pytest.mark.parametrize(
    "argv",
    [["pfaffian", "--grid", "GRID"], ["enumerate", "--rows", "2", "--cols", "2"], ["matchings", "--grid", "GRID"]],
)
def test_grid_commands_load_no_argparse(tmp_path, argv):
    grid = tmp_path / "grid.txt"
    grid.write_text("..#\n...\n")
    argv = [str(grid) if arg == "GRID" else arg for arg in argv]
    done = run_child(["-c", GRAPH_CHILD, "argparse,gettext", *argv])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].split() == ["0"]


@pytest.mark.parametrize(
    "argv, watched",
    [
        # text-format output, so no json; the value types are named tuples,
        # and no module of the package imports from __future__
        (["pfaffian", "--grid", "GRID"], "__future__,dataclasses,inspect,json"),
        (["enumerate", "--rows", "2", "--cols", "2"], "__future__,dataclasses,inspect"),
        (["enumerate", "--rows", "2", "--cols", "2", "--format", "text"], "dataclasses,inspect,json"),
        (["matchings", "--grid", "GRID"], "__future__,dataclasses,inspect"),
        (["matchings", "--grid", "GRID", "--format", "text"], "dataclasses,inspect,json"),
        # only formula_value needs an exact fraction
        (["check", "criterion-2xn", "--max-n", "2"], "__future__,dataclasses,inspect,fractions"),
    ],
    ids=["pfaffian", "enumerate", "enumerate-text", "matchings", "matchings-text", "check"],
)
def test_commands_load_no_dataclasses(tmp_path, argv, watched):
    grid = tmp_path / "grid.txt"
    grid.write_text("..#\n...\n")
    argv = [str(grid) if arg == "GRID" else arg for arg in argv]
    done = run_child(["-c", GRAPH_CHILD, watched, *argv])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].split() == ["0"]


#: per value type: a value, its repr, a value unequal to it, a field
#: replacement its constructor rejects and the error it raises (None for a
#: CheckReport, which validates nothing), and the same value built from lists
#: and generators, which the constructor stores as tuples
VALUES = {
    "CauchonDiagram": (
        lambda: CauchonDiagram(2, 2, (1, 0)),
        "CauchonDiagram(rows=2, cols=2, row_masks=(1, 0))",
        CauchonDiagram(2, 2, (0, 0)),
        {"row_masks": (0, 2)},
        NotCauchonError,
        [lambda: CauchonDiagram(2, 2, [1, 0]), lambda: CauchonDiagram(2, 2, (mask for mask in (1, 0)))],
    ),
    "SkewAdjacency": (
        lambda: SkewAdjacency(2, ((0, 1), (-1, 0))),
        "SkewAdjacency(d=2, entries=((0, 1), (-1, 0)))",
        SkewAdjacency(2, ((0, -1), (1, 0))),
        {"entries": ((0, 2), (-2, 0))},
        ValueError,
        [lambda: SkewAdjacency(2, [[0, 1], [-1, 0]]), lambda: SkewAdjacency(2, (iter(row) for row in [[0, 1], [-1, 0]]))],
    ),
    "Matching": (
        lambda: Matching(((1, 2),)),
        "Matching(edges=((1, 2),))",
        Matching(((1, 3),)),
        {"edges": ((2, 1),)},
        MalformedMatchingError,
        [
            lambda: Matching([(1, 2)]),
            lambda: Matching(edge for edge in [(1, 2)]),
            lambda: Matching([[1, 2]]),
            lambda: Matching(iter(edge) for edge in [[1, 2]]),
        ],
    ),
    "CheckReport": (
        lambda: CheckReport(("n",), [{"n": 1}], []),
        "CheckReport(header=('n',), rows=[{'n': 1}], failures=[])",
        CheckReport(("n",), [{"n": 1}], ["n=1: formula=1 census=2"]),
        None,
        None,
        [],
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_types_are_immutable_values(name):
    make, text, other, bad, error, rebuilt = VALUES[name]
    value = make()
    assert repr(value) == text
    assert value == make() and value != other
    assert type(value).__match_args__ == value._fields
    field = value._fields[-1]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(other, field))
    if error is None:
        # a CheckReport's rows and failures are lists, so it has no hash
        with pytest.raises(TypeError):
            hash(value)
        return
    assert hash(value) == hash(make())
    for build in rebuilt:
        again = build()
        assert (again, hash(again), repr(again)) == (value, hash(value), text)
    with pytest.raises(error):
        value._replace(**bad)


def test_src_annotates_without_typing_or_future():
    # every module imports Iterable, Callable and the like from
    # collections.abc, and its annotations are evaluated at definition; the
    # source is read, as an interpreter's site may already have loaded typing
    found = []
    for path in sorted(Path(SRC, "cauchon").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            banned = [name for name in names if name.split(".")[0] in ("__future__", "typing")]
            found += [f"{path.name}:{node.lineno} {name}" for name in banned]
    assert found == []


def test_public_names_resolve_lazily():
    # the submodule first: binding it on the package must not shadow the
    # public function of the same name
    child = """
import json, sys
import cauchon.pfaffian
import cauchon
star = {}
exec("from cauchon import *", star)
rows = []
for name in cauchon.__all__:
    value = getattr(cauchon, name)
    home = None if name == "__version__" else getattr(sys.modules[value.__module__], name)
    rows.append([name, home is None or home is value, name in star, name in dir(cauchon)])
try:
    cauchon.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps([rows, missing]))
"""
    done = run_child(["-c", child])
    assert done.returncode == 0, done.stderr
    rows, missing = json.loads(done.stdout)
    assert [row[0] for row in rows] == cauchon.__all__
    assert [row for row in rows if not all(row[1:])] == []
    assert missing is not None and "no_such_name" in missing


def test_label_layer_is_not_public():
    # a white square's label is its row-major position; no labeling type or
    # two-row record is exported, and fully_white_columns loads on first use
    child = """
import json, sys
import cauchon
gone = ["LabeledCauchonDiagram", "canonical_labels", "with_labels", "TwoRowStats", "two_row_stats"]
listed = [name for name in gone if name in cauchon.__all__]
try:
    from cauchon import with_labels
    imported = True
except ImportError:
    imported = False
before = "cauchon.criterion" in sys.modules
value = cauchon.fully_white_columns
home = sys.modules["cauchon.criterion"].fully_white_columns
print(json.dumps([listed, imported, before, value is home]))
"""
    done = run_child(["-c", child])
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], False, False, True]


def test_layer_benchmark_runs():
    # the per-layer benchmark imports private names of census, diagram and
    # backend, and times query-large's batch from perfbench's inputs; nothing
    # else runs it, so a rename must fail here
    script = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_backends.py"
    done = run_child([str(script), "--rows", "2", "--cols", "3", "--repeats", "1"])
    assert done.returncode == 0, done.stderr
    shape, kernel, large, cut, cycles, record, transfer = done.stdout.splitlines()
    assert shape == "shape 2x3: 46 diagrams"
    assert kernel.startswith("kernel      : ") and kernel.endswith(" us/diagram)")
    assert re.search(r" us/diagram; order [\d.]+, build [\d.]+, schur [\d.]+ us/diagram\)$", kernel), kernel
    assert re.match(r"large       : order +[\d.]+ us/query, build +[\d.]+ us/query, schur +[\d.]+ us/query  \(", large), large
    assert large.endswith(" query-large's batch: 600 queries of 6x8, 7x7 and 8x8, seed 1, d 27..63)"), large
    # the cut line compares the two orders for each d within three of the
    # cut; CI's 3x3 and 1x12 shapes lie below the cut, the large batch above
    cut_at = backend._ORDER_CUT
    assert 12 < cut_at <= 27 and cut.endswith(f" us a call in line-degree order against label order (cut {cut_at})"), cut
    assert re.findall(r"d (\d+) [+-][\d.]+", cut) == [str(d) for d in range(cut_at - 3, cut_at + 3)], cut
    assert cycles.startswith("cycles      : ") and cycles.endswith(", 0 mismatches against the kernel)")
    assert record.startswith("census      : total=46 primitive=17 in ")
    assert transfer.startswith("transfer    : 12 states at level 3 of width 2, ")
    alone = run_child([str(script), "--rows", "2", "--cols", "3", "--transfer-only"])
    assert alone.returncode == 0, alone.stderr
    [line] = alone.stdout.splitlines()
    assert line.startswith("transfer    : 12 states at level 3 of width 2, ")


# --- reachability ---------------------------------------------------------------

#: functions no command reaches, each with the reason it stays; every other
#: unreached function must be public API. An entry that a command reaches,
#: or that is gone, fails the test
UNREACHED = {
    "__init__.__dir__": "module protocol: dir(cauchon) lists the lazy public names",
    "backend.active_backend": "perfbench prints it (ROADMAP item 1, half B)",
    "backend.determinant": "the Bareiss oracle behind the public pfaffian.determinant",
    "census._diagram_wires": "the fold behind the public pfaffian.nullity",
    "checks.check_primitive_1xn": "acceptance criterion 4; ROADMAP item 9 replaces it",
}

#: classes that public functions return and ``cauchon.__all__`` does not name
RETURNED = {"checks.CheckReport"}

#: runs ``cauchon.cli.main`` on each command line of the JSON argv list under
#: a profiler, and prints the exit codes and the (file, first line) of every
#: code object called
REACH_CHILD = """
import contextlib, io, json, sys
reached, codes = set(), []
def profile(frame, event, arg):
    if event == "call":
        reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(profile)
from cauchon import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)
print(json.dumps([codes, sorted(reached)]))
"""


def command_lines(grid: str) -> list[list[str]]:
    """Every command in each of its formats, and every check subject in each, at size 2."""
    lines = []
    for fmt in ("text", "csv", "json"):
        lines += [
            ["count", "--rows", "2", "--cols", "2", "--format", fmt],
            ["table", "--max-rows", "2", "--max-cols", "2", "--format", fmt],
        ]
        for subject, (sizes, *_) in CHECK_SUBJECTS.items():
            options = [token for name in sizes for token in ("--" + name.replace("_", "-"), "2")]
            lines.append(["check", subject, *options, "--format", fmt])
    for fmt in ("text", "json"):
        lines += [
            ["count", "--rows", "2", "--cols", "2", "--histogram", "--format", fmt],
            ["pfaffian", "--grid", grid, "--format", fmt],
            ["pfaffian", "--grid", grid, "--show-matrix", "--show-nullity", "--format", fmt],
        ]
    for fmt in ("jsonl", "text"):
        lines += [
            ["enumerate", "--rows", "2", "--cols", "2", "--format", fmt],
            ["matchings", "--grid", grid, "--format", fmt],
        ]
    return lines


def functions(path: Path) -> dict[str, set[int]]:
    """Qualified name -> def and decorator lines, for every function of the module at ``path``.

    Nested functions count too. A decorated function's code object starts
    on its first decorator's line.
    """
    found = {}

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    found[name] = {child.lineno, *(d.lineno for d in child.decorator_list)}
                walk(child, name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(encoding="utf-8")), path.stem + ".")
    return found


def is_public(name: str) -> bool:
    """Whether ``module.qualname`` is public API.

    Public are the names of ``cauchon.__all__`` in their home module, and
    the methods of a public class (one ``cauchon.__all__`` names, or one of
    ``RETURNED``) that are dunders or have no leading underscore.
    """
    module, *path = name.split(".")

    def exported(top: str) -> bool:
        return top in cauchon.__all__ and getattr(cauchon, top).__module__ == f"cauchon.{module}"

    if len(path) == 1:
        return exported(path[0])
    if len(path) == 2:
        cls, method = path
        dunder = method.startswith("__") and method.endswith("__")
        return (dunder or not method.startswith("_")) and (exported(cls) or f"{module}.{cls}" in RETURNED)
    return False


def test_every_function_has_a_caller_or_a_reason(tmp_path):
    # the commands reach every function of src/cauchon that is not public
    # API and not listed in UNREACHED with its reason
    grids = {"grid": "..#.\n#...\n", "ragged": "..\n...\n", "letter": "..\n.x\n", "not-cauchon": "..\n.#\n"}
    # 30 white squares: classify_cells condenses them in line-degree order
    grids["large"] = "......\n" * 5
    for name, text in grids.items():
        (tmp_path / name).write_text(text)
    lines = command_lines(str(tmp_path / "grid")) + [["pfaffian", "--grid", str(tmp_path / "large")]]
    errors = [
        (["count", "--rows", "0", "--cols", "2"], 2),  # usage error
        (["count", "--rows", "9", "--cols", "9"], 3),  # guardrail
        *[(["pfaffian", "--grid", str(tmp_path / name)], 4) for name in ("ragged", "letter", "not-cauchon")],
    ]
    done = run_child(["-c", REACH_CHILD, json.dumps(lines + [argv for argv, _ in errors])])
    assert done.returncode == 0, done.stderr
    codes, reached = json.loads(done.stdout)
    assert codes == [0] * len(lines) + [code for _, code in errors]
    reached = {(path, line) for path, line in reached}
    unreached = {
        name
        for path in Path(SRC, "cauchon").glob("*.py")
        for name, starts in functions(path).items()
        if not {(str(path), line) for line in starts} & reached
    }
    assert sorted(name for name in unreached if name not in UNREACHED and not is_public(name)) == []
    assert sorted(set(UNREACHED) - unreached) == []
