"""Cross-checks between the exact condensation kernel and slow reference
implementations written here from first principles."""

import importlib.util
import itertools
import os
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from cauchon import backend


def reference_pfaffian(a):
    """Signed sum over all pairings, straight from the definition."""
    d = len(a)
    if d == 0:
        return 1
    if d % 2:
        return 0

    def pairings(remaining):
        if not remaining:
            yield []
            return
        first = remaining[0]
        for k in range(1, len(remaining)):
            other = remaining[k]
            rest = remaining[1:k] + remaining[k + 1 :]
            for tail in pairings(rest):
                yield [(first, other)] + tail

    total = 0
    for pairing in pairings(tuple(range(d))):
        seq = [v for edge in pairing for v in edge]
        inv = sum(
            1
            for p, q in itertools.combinations(range(len(seq)), 2)
            if seq[p] > seq[q]
        )
        weight = 1
        for i, j in pairing:
            weight *= a[i][j]
        total += (-1) ** inv * weight
    return total


def reference_rank(a):
    d = len(a)
    m = [[Fraction(v) for v in row] for row in a]
    rank = 0
    row = 0
    for col in range(d):
        pivot = next((r for r in range(row, d) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        for r in range(row + 1, d):
            factor = m[r][col] / pv
            if factor:
                for c in range(col, d):
                    m[r][c] -= factor * m[row][c]
        row += 1
        rank += 1
    return rank


def reference_determinant(a):
    d = len(a)
    if d == 0:
        return 1
    m = [[Fraction(v) for v in row] for row in a]
    det = Fraction(1)
    for col in range(d):
        pivot = next((r for r in range(col, d) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, d):
            factor = m[r][col] / m[col][col]
            if factor:
                for c in range(col, d):
                    m[r][c] -= factor * m[col][c]
    assert det.denominator == 1
    return det.numerator


def random_skew(rng, d, lo=-1, hi=1):
    a = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            v = rng.randint(lo, hi)
            a[i][j] = v
            a[j][i] = -v
    return a


def test_python_kernel_against_reference():
    rng = random.Random(101)
    for _ in range(300):
        d = rng.randrange(0, 9)
        a = random_skew(rng, d)
        pf, nul = backend.pfaffian_and_nullity(a)
        assert pf == reference_pfaffian(a)
        assert nul == d - reference_rank(a)


def test_python_kernel_with_large_entries():
    rng = random.Random(102)
    for _ in range(100):
        d = rng.randrange(0, 7)
        a = random_skew(rng, d, lo=-9, hi=9)
        pf, nul = backend.pfaffian_and_nullity(a)
        assert pf == reference_pfaffian(a)
        assert nul == d - reference_rank(a)


def test_classify_cells_handles_large_dimension():
    # an all-white single row: every pair of squares is adjacent
    for d, expected in [(45, (0, 1)), (46, (1, 0))]:
        assert backend.classify_cells([1] * d, list(range(1, d + 1))) == expected


def test_determinant_against_reference():
    rng = random.Random(104)
    for _ in range(200):
        d = rng.randrange(0, 7)
        a = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
        assert backend.determinant(a) == reference_determinant(a)


def test_active_backend_name():
    assert backend.active_backend() == "python"


ROOT = Path(__file__).resolve().parent.parent
COUNT = ["-m", "cauchon.cli", "count", "--rows", "2", "--cols", "9", "--histogram", "--format", "json"]


def copy_checkout(path: Path) -> Path:
    """Copy what perfbench's set-up builds, with no ``.pyc``, to ``path``; returns the package."""
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(ROOT / name, path / name)
    shutil.copytree(ROOT / "src", path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return path / "src" / "cauchon"


def build_inplace(path: Path) -> subprocess.CompletedProcess:
    # perfbench's set-up runs this command on a fresh copy of the checkout
    command = [sys.executable, "setup.py", "build_ext", "--inplace"]
    return subprocess.run(command, cwd=path, capture_output=True, text=True)


def run_copy(path: Path, *args: str) -> subprocess.CompletedProcess:
    """``python ARGS`` importing ``cauchon`` from the copy at ``path`` and writing no ``.pyc``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(path / "src"))
    return subprocess.run([sys.executable, *args], cwd=path, env=env, capture_output=True, text=True)


def loaded_code(package: Path, verbose_log: str) -> tuple[set[str], set[str]]:
    """The sources of the package's modules a ``python -v`` run imports, and the files it took their code from."""
    # cauchon.cli runs under runpy as __main__, so the log has no import line for it
    modules = {"cauchon.cli", *re.findall(r"^import '(cauchon[.\w]*)'", verbose_log, re.M)}
    sources = {str(package / (name.partition(".")[2] or "__init__")) + ".py" for name in modules}
    # bytecode is named by its repr, source by its bare path
    files = re.findall(r"^# code object from '?(.*?)'?$", verbose_log, re.M)
    return sources, {name for name in files if name.startswith(str(package))}


def test_build_ext_inplace_builds_no_extension(tmp_path):
    package = copy_checkout(tmp_path)
    done = build_inplace(tmp_path)
    assert done.returncode == 0, done.stderr
    assert not [path for path in tmp_path.rglob("*") if path.suffix in {".so", ".pyd", ".c"}]
    assert {path.name for path in package.iterdir() if path.suffix != ".py"} == {"__pycache__"}
    cached = {importlib.util.cache_from_source(str(path)) for path in package.glob("*.py")}
    assert {str(path) for path in (package / "__pycache__").iterdir()} == cached


def test_cli_loads_bytecode_after_the_build(tmp_path):
    built, unbuilt = tmp_path / "built", tmp_path / "unbuilt"
    for path in (built, unbuilt):
        path.mkdir()
        copy_checkout(path)
    assert build_inplace(built).returncode == 0
    runs = {path: run_copy(path, "-v", *COUNT) for path in (built, unbuilt)}
    for path, done in runs.items():
        assert done.returncode == 0, done.stderr
        package = path / "src" / "cauchon"
        sources, files = loaded_code(package, done.stderr)
        expected = {importlib.util.cache_from_source(name) for name in sources} if path == built else sources
        assert files == expected
    assert runs[built].stdout == runs[unbuilt].stdout


def test_an_edit_after_the_build_runs(tmp_path):
    cli = copy_checkout(tmp_path) / "cli.py"
    assert build_inplace(tmp_path).returncode == 0
    source = cli.read_text()
    edited = source.replace("exceeds the guardrail", "EXCEEDS the guardrail")
    assert edited != source and len(edited) == len(source)
    cli.write_text(edited)
    # the size is unchanged, so only the moved mtime tells the .pyc is stale
    mtime = cli.stat().st_mtime_ns + 10 * 10**9
    os.utime(cli, ns=(mtime, mtime))
    done = run_copy(tmp_path, "-m", "cauchon.cli", "count", "--rows", "6", "--cols", "6")
    assert done.returncode == 3
    assert "36 cells EXCEEDS the guardrail of 30" in done.stderr


def test_build_fails_on_a_module_that_does_not_compile(tmp_path):
    broken = copy_checkout(tmp_path) / "matching.py"
    broken.write_text(broken.read_text() + "\ndef (:\n")
    done = build_inplace(tmp_path)
    assert done.returncode != 0
    assert str(broken.resolve()) in done.stdout + done.stderr


def low_rank_skew(rng, d, rank_pairs, bound=10**12):
    """A random skew matrix of rank at most 2 * rank_pairs, entries at most ``bound``."""
    a = [[0] * d for _ in range(d)]
    scale = bound // (2 * 10**6 * max(rank_pairs, 1))
    for _ in range(rank_pairs):
        u = [rng.randint(-1000, 1000) for _ in range(d)]
        v = [rng.randint(-1000, 1000) for _ in range(d)]
        c = rng.randint(-scale, scale)
        for i in range(d):
            for j in range(i + 1, d):
                w = c * (u[i] * v[j] - v[i] * u[j])
                a[i][j] += w
                a[j][i] -= w
    return a


def direct_sum(*blocks):
    d = sum(len(block) for block in blocks)
    a = [[0] * d for _ in range(d)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            a[at + i][at : at + len(row)] = row
        at += len(block)
    return a


def test_kernel_passes_over_vanishing_rows_before_later_pivots():
    # a row of the trailing block that vanishes is a kernel vector and is
    # passed over before the later pivots: an index isolated inside a
    # low-rank block, the third index of a 3-index block (rank 2) once its
    # pivot pair is taken, or a row of a low-rank block past its rank
    rng = random.Random(105)
    for trial in range(300):
        d = rng.randrange(3, 10)
        pairs = rng.randrange(0, d // 2 + 1)
        if trial % 3 == 0:
            a = low_rank_skew(rng, d, pairs)
            k = rng.randrange(d - 1)
            for i in range(d):
                a[k][i] = a[i][k] = 0
        elif trial % 3 == 1:
            a = direct_sum(low_rank_skew(rng, 3, 1), low_rank_skew(rng, d - 3, pairs))
        else:
            a = low_rank_skew(rng, d, pairs)
        assert max(abs(v) for row in a for v in row) <= 10**12
        pf, nul = backend.pfaffian_and_nullity(a)
        assert (pf, nul) == (reference_pfaffian(a), d - reference_rank(a)), a


def test_kernel_reads_only_the_upper_triangle():
    # junk below the diagonal must not change the result: the kernel reads
    # and writes only entries right of it, also where a swap carries an
    # entry across the diagonal (shuffled indices make such swaps common)
    rng = random.Random(106)
    for trial in range(500):
        d = rng.randrange(2, 11)
        if trial % 2:
            a = low_rank_skew(rng, d, rng.randrange(0, d // 2 + 1))
        else:
            a = random_skew(rng, d)
            for i in range(d):
                for j in range(i + 1, d):
                    if rng.random() < 0.5:
                        a[i][j] = a[j][i] = 0
        perm = list(range(d))
        rng.shuffle(perm)
        a = [[a[perm[i]][perm[j]] for j in range(d)] for i in range(d)]
        junk = [
            [rng.randint(-99, 99) if j <= i else a[i][j] for j in range(d)]
            for i in range(d)
        ]
        expected = (reference_pfaffian(a), d - reference_rank(a))
        assert backend.pfaffian_and_nullity(junk) == expected, a
