"""The package's import graph: what each command loads, and the lazy public API.

These run in child interpreters, because the test process has long loaded
every submodule and would hide a lazy import that is missing or broken.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cauchon

SRC = str(Path(cauchon.__file__).resolve().parents[1])

#: modules the count path must not load: the rest of the package, and the
#: standard-library modules only it needs
HEAVY = (
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
    "cauchon.commands",
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
    # the error
    done = run_child(["-c", GRAPH_CHILD, "argparse", "count", "--rows", "x", "--cols", "2"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].split() == ["2", "argparse"]


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
    # backend, and nothing else runs it; a rename must fail here
    script = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_backends.py"
    done = run_child([str(script), "--rows", "2", "--cols", "3", "--repeats", "1"])
    assert done.returncode == 0, done.stderr
    assert "0 mismatches against the kernel" in done.stdout
    assert "of argparse, gettext and json it loads: built none, unbuilt none" in done.stdout
