"""Cross-checks between the exact condensation kernel, a Bareiss oracle and
slow reference implementations written here from first principles."""

import importlib.util
import itertools
import math
import os
import random
import re
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from cauchon import CauchonDiagram, backend, census, enumerate_diagrams
from cauchon.diagram import white_coordinates
from conftest import LARGE_SHAPES, random_diagrams, random_grids


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


def _condense(matrix):
    """(Pfaffian, nullity) of ``matrix`` by fraction-free (Bareiss) condensation on a copy of its rows.

    The oracle the Schur kernel is checked against; it shares no code with
    ``cauchon.backend``. Like the kernel it reads only the upper triangle:
    at row s it swaps the first nonzero partner j into place s+1 (each swap
    flips the sign, and the entries between the two indices cross the
    diagonal negated), then updates every trailing entry j > i by

        a[i][j] <- (p * a[i][j] - a[s][i] * a[s+1][j] + a[s][j] * a[s+1][i]) // prev

    with p = a[s][s+1] and prev the previous pivot (1 at the start). Every
    intermediate entry is the Pfaffian of a principal submatrix of the
    swapped input, so the division is exact, and the last pivot, times the
    sign, is the Pfaffian. A row with no nonzero partner is a kernel vector
    and is passed over.
    """
    a = [list(row) for row in matrix]
    d = len(a)
    sign = 1
    prev = 1
    pairs = 0
    s = 0
    while s < d - 1:
        row_s = a[s]
        for j0 in range(s + 1, d):
            if row_s[j0]:
                break
        else:
            s += 1
            continue
        t = s + 1
        if j0 != t:
            # swap indices t and j0 on the upper triangle
            row_t, row_j = a[j0], a[t]
            a[t], a[j0] = row_t, row_j
            row_s[t], row_s[j0] = row_s[j0], row_s[t]
            for k in range(t + 1, j0):
                row_k = a[k]
                row_t[k] = -row_k[j0]
                row_k[j0] = -row_j[k]
            row_t[j0] = -row_j[j0]
            sign = -sign
        row_t = a[t]
        p = row_s[t]
        for i in range(s + 2, d):
            asi = row_s[i]
            ati = row_t[i]
            row_i = a[i]
            for j in range(i + 1, d):
                row_i[j] = (p * row_i[j] - asi * row_t[j] + row_s[j] * ati) // prev
        prev = p
        pairs += 1
        s += 2
    nullity = d - 2 * pairs
    return (0 if nullity else sign * prev), nullity


def both_kernels(matrix):
    """(Pfaffian, nullity) of ``matrix`` by the Bareiss oracle, which the Schur kernel must give too."""
    got = _condense(matrix)
    assert _schur(matrix) == got, matrix
    return got


def test_python_kernel_against_reference():
    rng = random.Random(101)
    for _ in range(300):
        d = rng.randrange(0, 9)
        a = random_skew(rng, d)
        pf, nul = both_kernels(a)
        assert pf == reference_pfaffian(a)
        assert nul == d - reference_rank(a)


def test_python_kernel_with_large_entries():
    rng = random.Random(102)
    for _ in range(100):
        d = rng.randrange(0, 7)
        a = random_skew(rng, d, lo=-9, hi=9)
        pf, nul = both_kernels(a)
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


def setup_py(path: Path, *args: str, **env: str) -> subprocess.CompletedProcess:
    """``python setup.py ARGS`` in the copy at ``path``, with ``env`` added to the environment."""
    command = [sys.executable, "setup.py", *args]
    return subprocess.run(command, cwd=path, env=dict(os.environ, **env), capture_output=True, text=True)


def build_inplace(path: Path, flag: str = "--inplace", **env: str) -> subprocess.CompletedProcess:
    # perfbench's set-up runs this command on a fresh copy of the checkout
    return setup_py(path, "build_ext", flag, **env)


def cached_modules(package: Path) -> set[str]:
    """The ``.pyc`` the build must write: one in ``__pycache__`` for every module of the package."""
    return {importlib.util.cache_from_source(str(path)) for path in package.glob("*.py")}


def run_copy(path: Path, *args: str) -> subprocess.CompletedProcess:
    """``python ARGS`` importing ``cauchon`` from the copy at ``path`` and writing no ``.pyc``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(path / "src"))
    return subprocess.run([sys.executable, *args], cwd=path, env=env, capture_output=True, text=True)


def imported(verbose_log: str) -> set[str]:
    """Every module a ``python -v`` run imports."""
    return set(re.findall(r"^import '([\w.]+)'", verbose_log, re.M))


def loaded_code(package: Path, verbose_log: str) -> tuple[set[str], set[str]]:
    """The sources of the package's modules a ``python -v`` run imports, and the files it took their code from."""
    # cauchon.cli runs under runpy as __main__, so the log has no import line for it
    modules = {"cauchon.cli", *(name for name in imported(verbose_log) if name.partition(".")[0] == "cauchon")}
    sources = {str(package / (name.partition(".")[2] or "__init__")) + ".py" for name in modules}
    # bytecode is named by its repr, source by its bare path
    files = re.findall(r"^# code object from '?(.*?)'?$", verbose_log, re.M)
    return sources, {name for name in files if name.startswith(str(package))}


def test_build_ext_inplace_builds_no_extension(tmp_path):
    package = copy_checkout(tmp_path)
    before = set(tmp_path.rglob("*"))
    done = build_inplace(tmp_path)
    assert done.returncode == 0, done.stderr
    # nothing but the bytecode: no extension, no build/ and no *.egg-info
    assert set(tmp_path.rglob("*")) - before == {package / "__pycache__", *(package / "__pycache__").iterdir()}
    assert {str(path) for path in (package / "__pycache__").iterdir()} == cached_modules(package)


@pytest.mark.parametrize("flag", ["--inplace", "-i"])
def test_build_ext_inplace_loads_no_setuptools(tmp_path, flag):
    checkout, stub = tmp_path / "checkout", tmp_path / "stub" / "setuptools"
    checkout.mkdir()
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text('raise ImportError("the in-place build imported setuptools")\n')
    package = copy_checkout(checkout)
    done = build_inplace(checkout, flag, PYTHONPATH=str(stub.parent))
    assert (done.returncode, done.stderr) == (0, "")
    assert {str(path) for path in (package / "__pycache__").iterdir()} == cached_modules(package)


@pytest.mark.parametrize(
    "args, error",
    [
        (["build_ext"], "missing --inplace"),
        (["build_ext", "--inplace", "--force"], "unrecognized argument: --force"),
        (["build_ext", "-i", "--inplace"], "unrecognized argument: --inplace"),
        (["-q", "build_ext", "--inplace"], "unrecognized argument: -q"),
    ],
    ids=["bare", "other-flag", "both-flags", "global-option"],
)
def test_build_ext_takes_only_inplace(tmp_path, args, error):
    package = copy_checkout(tmp_path)
    done = setup_py(tmp_path, *args)
    assert done.returncode == 2
    assert done.stderr == f"usage: setup.py build_ext --inplace\nsetup.py build_ext: error: {error}\n"
    assert not (package / "__pycache__").exists()


def test_setup_py_passes_the_project_metadata_to_setuptools(tmp_path):
    copy_checkout(tmp_path)
    done = setup_py(tmp_path, "--name", "--version")
    assert (done.returncode, done.stdout) == (0, "cauchon\n0.1.0\n"), done.stderr


def test_cli_loads_bytecode_after_the_build(tmp_path):
    built, unbuilt = tmp_path / "built", tmp_path / "unbuilt"
    for path in (built, unbuilt):
        path.mkdir()
        copy_checkout(path)
        (path / "grid.txt").write_text("..#.\n#...\n")
    assert build_inplace(built).returncode == 0
    runs = {path: run_copy(path, "-v", *COUNT) for path in (built, unbuilt)}
    for path, done in runs.items():
        assert done.returncode == 0, done.stderr
        package = path / "src" / "cauchon"
        sources, files = loaded_code(package, done.stderr)
        expected = {importlib.util.cache_from_source(name) for name in sources} if path == built else sources
        assert files == expected
        # the CLI reads this command line and writes its JSON itself
        assert not imported(done.stderr) & {"argparse", "gettext", "json"}
        pfaffian = run_copy(path, "-v", "-m", "cauchon.cli", "pfaffian", "--grid", "grid.txt")
        assert pfaffian.returncode == 0, pfaffian.stderr
        # the value types are named tuples, text output needs no JSON, and
        # the kernel stays in the integers
        assert not imported(pfaffian.stderr) & {"dataclasses", "inspect", "json", "fractions"}
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
        pf, nul = both_kernels(a)
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
        assert both_kernels(junk) == expected, a


def sparse_skew(rng, d, density):
    """A random 0/+-1 skew matrix whose entries right of the diagonal are nonzero with probability ``density``."""
    a = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            if rng.random() < density:
                v = rng.choice((-1, 1))
                a[i][j] = v
                a[j][i] = -v
    return a


def expanded_pfaffian(a):
    """The Pfaffian expanded along the first remaining index, over its nonzero entries only.

    The same signed sum over pairings as ``reference_pfaffian``, but a
    pairing with a zero entry is never built, so a sparse matrix of d = 24 is
    quick.
    """
    if len(a) % 2:
        return 0
    memo = {(): 1}

    def pf(rest):
        if rest not in memo:
            first, others = rest[0], rest[1:]
            memo[rest] = sum(
                (-1) ** k * a[first][j] * pf(others[:k] + others[k + 1 :])
                for k, j in enumerate(others)
                if a[first][j]
            )
        return memo[rest]

    return pf(tuple(range(len(a))))


def permutation_sign(perm):
    return (-1) ** sum(perm[p] > perm[q] for p, q in itertools.combinations(range(len(perm)), 2))


def test_expanded_pfaffian_against_reference():
    rng = random.Random(107)
    for _ in range(300):
        a = sparse_skew(rng, rng.randrange(0, 9), rng.random())
        assert expanded_pfaffian(a) == reference_pfaffian(a), a


def test_kernel_on_sparse_matrices_up_to_d24():
    # larger and sparser than the tests above, so that a trailing row
    # couples to both pivot rows, to one of them or to neither, and the
    # pivot often changes from one pair to the next (p != prev): the one
    # fraction-free formula must hold for every such row
    rng = random.Random(108)
    for _ in range(120):
        d = rng.randrange(12, 25)
        a = sparse_skew(rng, d, rng.choice((0.08, 0.15, 0.25)))
        assert both_kernels(a) == (expanded_pfaffian(a), d - reference_rank(a)), a


def test_kernel_on_shuffled_direct_sums_up_to_d24():
    # blocks of up to 8 indices: a trailing row of another block couples to
    # neither pivot row, and the pivot moves from block to block; shuffling
    # the indices interleaves the blocks, which multiplies the Pfaffian by
    # the sign of the permutation and keeps the rank
    rng = random.Random(109)
    for trial in range(150):
        size = rng.randrange(12, 25)
        blocks = []
        while sum(map(len, blocks)) < size:
            blocks.append(sparse_skew(rng, rng.randrange(1, 9), rng.choice((0.3, 0.6, 1.0))))
        a = direct_sum(*blocks)
        d = len(a)
        pf, rank = 1, 0
        for block in blocks:
            pf *= reference_pfaffian(block)
            rank += reference_rank(block)
        perm = list(range(d))
        if trial % 2:
            rng.shuffle(perm)
        shuffled = [[a[perm[i]][perm[j]] for j in range(d)] for i in range(d)]
        assert both_kernels(shuffled) == (permutation_sign(perm) * pf, d - rank), shuffled


def pairwise_skew_matrix(rows, cols):
    """The skew adjacency matrix by testing every pair of squares: the oracle for ``backend.skew_matrix``."""
    d = len(rows)
    a = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            if rows[j] == rows[i] or cols[j] == cols[i]:
                a[i][j] = 1
                a[j][i] = -1
    return a


def test_skew_matrix_matches_pairwise_oracle_at_large_sizes():
    large = random_diagrams(LARGE_SHAPES, 200, seed=20261020)
    large += [CauchonDiagram.all_white(m, n) for m, n in LARGE_SHAPES]
    assert {(d.rows, d.cols) for d in large} == set(LARGE_SHAPES)
    for diagram in large:
        rows, cols = white_coordinates(diagram.row_masks, diagram.cols)
        assert backend.skew_matrix(rows, cols) == pairwise_skew_matrix(rows, cols), str(diagram)


def test_skew_matrix_takes_squares_in_any_order():
    # every same-row and same-column pair is set wherever the two squares
    # stand in the input, and entry (i, j) with i < j is +1 in input order
    rng = random.Random(110)
    for diagram in random_diagrams(LARGE_SHAPES, 40, seed=20261021):
        rows, cols = white_coordinates(diagram.row_masks, diagram.cols)
        d = len(rows)
        in_order = backend.skew_matrix(rows, cols)
        perm = sorted(range(d), key=lambda k: (cols[k], rows[k]))  # column-major
        if rng.random() < 0.5:
            rng.shuffle(perm)
        moved_rows, moved_cols = [rows[k] for k in perm], [cols[k] for k in perm]
        moved = backend.skew_matrix(moved_rows, moved_cols)
        assert moved == pairwise_skew_matrix(moved_rows, moved_cols), str(diagram)
        for i in range(d):
            for j in range(d):
                sign = 1 if i < j else -1
                assert moved[i][j] == sign * abs(in_order[perm[i]][perm[j]])


@pytest.mark.parametrize("cols", [[1, 2], [1, 2, 3, 4]], ids=["short", "long"])
@pytest.mark.parametrize("build", [backend.skew_matrix, backend.classify_cells], ids=["skew_matrix", "classify_cells"])
def test_coordinates_of_unequal_lengths_raise(build, cols):
    with pytest.raises(ValueError, match=rf"^rows has 3 coordinates but cols has {len(cols)}$"):
        build([1, 1, 2], cols)


def test_coordinates_of_unequal_lengths_raise_above_the_cut():
    # the line-degree order runs first there, and must not hide the error
    for d, other in [(30, 29), (29, 30)]:
        with pytest.raises(ValueError, match=rf"^rows has {d} coordinates but cols has {other}$"):
            backend.classify_cells([1] * d, list(range(1, other + 1)))


# --- the Schur kernel --------------------------------------------------------


def _schur(matrix):
    """What ``backend._schur`` gives on a copy of the rows, which it destroys."""
    return backend._schur([list(row) for row in matrix], len(matrix))


def fractions_with(fraction):
    """A stand-in ``fractions`` module whose ``Fraction`` is ``fraction``, for ``sys.modules``.

    The kernel imports ``Fraction`` by name when it leaves the integers, so
    it gets ``fraction``; the real module, whose arithmetic reads its own
    ``Fraction``, is not touched.
    """
    stand_in = types.ModuleType("fractions")
    stand_in.Fraction = fraction
    return stand_in


def _refuse_fraction(*args):
    raise AssertionError(f"the Schur kernel left the integers: Fraction{args}")


#: a ``fractions`` whose ``Fraction`` fails the test that reaches it
INTEGERS_ONLY = fractions_with(_refuse_fraction)


def _integer_schur(matrix):
    """What ``backend._schur`` gives on a copy of the rows, failing if it takes a ``fractions.Fraction``."""
    real = sys.modules["fractions"]
    sys.modules["fractions"] = INTEGERS_ONLY
    try:
        return _schur(matrix)
    finally:
        sys.modules["fractions"] = real


def assert_schur_matches_condense(masks, n, label):
    """The Schur kernel, in integers alone, agrees with the oracle on the grid of row ``masks`` and width ``n``,
    and so does the cycle nullity; returns d.

    The even cycles of the grid's wires (``census._diagram_wires``) give the
    nullity of every diagram (Bell, Casteels and Launois 2012). On a grid
    that is no diagram the rule is only observed: no counterexample found.
    """
    a = backend.skew_matrix(*white_coordinates(masks, n))
    got = _integer_schur(a)
    assert got == _condense(a), label
    assert census._even_cycles(census._diagram_wires(n, masks)) == got[1], label
    return len(a)


def test_schur_matches_condense_on_every_small_diagram():
    # never a remainder on a diagram: the kernel stays in the integers
    count = 0
    for m in range(1, 5):
        for n in range(1, 5):
            for diagram in enumerate_diagrams(m, n):
                assert_schur_matches_condense(diagram.row_masks, n, str(diagram))
                count += 1
    assert count == 9720


def test_schur_matches_condense_on_every_small_grid():
    # every black/white grid, not only diagrams, reaches matrices no diagram
    # gives; still no division leaves a remainder
    count = 0
    for m in range(2, 5):
        for n in range(2, 5):
            for masks in itertools.product(range(1 << n), repeat=m):
                assert_schur_matches_condense(masks, n, (m, n, masks))
                count += 1
    assert count == 74896


def test_schur_matches_condense_on_random_grids():
    # past 4x4: 40 random grids of every shape up to 9x11 (d up to 99),
    # sparse to all-white
    shapes = [(m, n) for m in range(1, 10) for n in range(1, 12)]
    grids = random_grids(shapes, 40 * len(shapes), seed=20261020)
    sizes = []
    for m, n, masks in grids:
        sizes.append(assert_schur_matches_condense(masks, n, (m, n, masks)))
    assert len(grids) == 3960 and max(sizes) > 90, max(sizes)


def test_schur_matches_condense_on_large_diagrams():
    large = random_diagrams(LARGE_SHAPES, 80, seed=20261022)
    assert {(d.rows, d.cols) for d in large} == set(LARGE_SHAPES)
    for diagram in large:
        assert_schur_matches_condense(diagram.row_masks, diagram.cols, str(diagram))


def test_cycle_nullity_matches_schur_on_wide_diagrams():
    # widths whose first rows are too many to list: 2 x 20..40 and 3 x 12..30,
    # two draws of each shape, checked in integers alone
    shapes = [(2, n) for n in range(20, 41)] + [(3, n) for n in range(12, 31)]
    nullities, sizes = [], []
    for diagram in random_diagrams(shapes, 2 * len(shapes), seed=20261025):
        n, masks = diagram.cols, diagram.row_masks
        a = backend.skew_matrix(*white_coordinates(masks, n))
        nullity = _integer_schur(a)[1]
        assert census._even_cycles(census._diagram_wires(n, masks)) == nullity, str(diagram)
        nullities.append(nullity)
        sizes.append(len(a))
    assert sum(k == 0 for k in nullities) >= 20 and sum(k > 0 for k in nullities) >= 20, nullities
    assert max(sizes) > 60, max(sizes)


def test_schur_matches_condense_on_general_skew_matrices(monkeypatch):
    # dense entries up to 3, shuffled direct sums of small blocks and sparse
    # +-1 matrices: some divisions leave remainders, and _schur must then
    # go on in exact fractions, never rounding, and still give an int
    # Pfaffian; it reads only the upper triangle (the lower one holds junk
    # in half the trials)
    made = []

    def spy(*args):
        made.append(trial)
        return Fraction(*args)

    monkeypatch.setitem(sys.modules, "fractions", fractions_with(spy))
    rng = random.Random(111)
    for trial in range(600):
        d = rng.randrange(2, 25)
        if trial % 3 == 0:
            a = random_skew(rng, d, -3, 3)
        elif trial % 3 == 1:
            blocks = []
            while sum(map(len, blocks)) < d:
                blocks.append(random_skew(rng, rng.randrange(1, 7), -2, 2))
            a = direct_sum(*blocks)
            perm = list(range(len(a)))
            rng.shuffle(perm)
            a = [[a[perm[i]][perm[j]] for j in range(len(a))] for i in range(len(a))]
        else:
            a = sparse_skew(rng, d, rng.choice((0.1, 0.2, 0.4)))
        d = len(a)
        junk = [[rng.randint(-9, 9) if j <= i and trial % 4 < 2 else a[i][j] for j in range(d)] for i in range(d)]
        got = _schur(junk)
        assert got == _condense(a) and type(got[0]) is int, a
    # the rational path is common, so both paths run
    rational = len(set(made))
    assert 100 < rational < 500, rational


# --- a modular Pfaffian oracle for large d -----------------------------------

#: Mersenne primes 2^61 - 1, 2^89 - 1, 2^107 - 1 and 2^127 - 1
MERSENNE_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)


def pfaffian_mod(a, q):
    """Pf(a) mod the prime ``q`` by skew elimination on the full matrix.

    Both triangles are stored. The pivot partner is moved into place by
    swapping its row and column, which flips the sign, and the trailing
    block is updated by congruence, on both sides of the diagonal.
    """
    d = len(a)
    if d % 2:
        return 0
    m = [[v % q for v in row] for row in a]
    pf = 1
    for s in range(0, d, 2):
        t = s + 1
        k = next((k for k in range(t, d) if m[s][k]), None)
        if k is None:
            return 0
        if k != t:
            m[t], m[k] = m[k], m[t]
            for row in m:
                row[t], row[k] = row[k], row[t]
            pf = -pf
        row_s, row_t = m[s], m[t]
        pf = pf * row_s[t] % q
        inv = pow(row_s[t], -1, q)
        for i in range(t + 1, d):
            row_i = m[i]
            cs = row_i[s] * inv % q
            ct = row_i[t] * inv % q
            if cs or ct:
                for j in range(t + 1, d):
                    row_i[j] = (row_i[j] + cs * row_t[j] - ct * row_s[j]) % q
    return pf


def modular_pfaffian(a):
    """The exact Pfaffian of ``a``, from its residues mod ``MERSENNE_PRIMES`` lifted by CRT.

    By Hadamard, |Pf|^2 = |det| <= the product of the rows' norms, so
    B = floor((product of ||row||^2)^(1/4)) + 1 bounds |Pf|. Primes are
    taken until their product passes 2B, and the symmetric residue is the
    Pfaffian. It shares no code with ``cauchon.backend``.
    """
    norms = 1
    for row in a:
        norms *= sum(v * v for v in row)
    bound = math.isqrt(math.isqrt(norms)) + 1
    residue, modulus = 0, 1
    for q in MERSENNE_PRIMES:
        residue += modulus * ((pfaffian_mod(a, q) - residue) * pow(modulus, -1, q) % q)
        modulus *= q
        if modulus > 2 * bound:
            return residue if 2 * residue <= modulus else residue - modulus
    raise AssertionError(f"the primes do not pass twice the bound {bound}")


def matched_sparse_skew(rng, d):
    """A shuffled perfect matching of +-1 entries plus 2 % random +-1 entries, so that pivot partners stand far apart."""
    a = sparse_skew(rng, d, 0.02)
    perm = list(range(d))
    rng.shuffle(perm)
    for k in range(0, d - 1, 2):
        i, j = sorted(perm[k : k + 2])
        v = rng.choice((-1, 1))
        a[i][j] = v
        a[j][i] = -v
    return a


def test_modular_pfaffian_against_reference():
    # small entries, entries up to 10^12 (whose bound takes more than one
    # prime) and sparse matrices up to d = 24
    rng = random.Random(112)
    for trial in range(300):
        d = rng.randrange(0, 9)
        a = random_skew(rng, d, -3, 3) if trial % 2 else low_rank_skew(rng, d, rng.randrange(0, d // 2 + 1))
        assert modular_pfaffian(a) == reference_pfaffian(a), a
    for _ in range(40):
        a = sparse_skew(rng, rng.randrange(12, 25), rng.choice((0.15, 0.25)))
        assert modular_pfaffian(a) == expanded_pfaffian(a), a


def test_kernels_match_modular_pfaffian_at_large_d():
    # above d = 24 the Schur kernel and the Bareiss oracle were checked only
    # against each other, and both move a pivot partner by the same swap;
    # this oracle shares no code with either. Diagrams and grids are built pairwise for the oracle. The
    # shuffled matchings put pivot partners far apart, so a swap reaches
    # far past its row; both kernels must give the oracle's value
    found = {"diagram": [0, 0], "grid": [0, 0], "matching": [0, 0]}  # nonzero, negative

    def tally(kind, pf):
        found[kind][0] += pf != 0
        found[kind][1] += pf < 0

    for diagram in random_diagrams(LARGE_SHAPES, 160, seed=20261024):
        cells = white_coordinates(diagram.row_masks, diagram.cols)
        pf = modular_pfaffian(pairwise_skew_matrix(*cells))
        assert backend.classify_cells(*cells)[0] == pf, str(diagram)
        tally("diagram", pf)
    shapes = [(m, n) for m in range(1, 10) for n in range(1, 12)]
    for m, n, masks in random_grids(shapes, 3 * len(shapes), seed=20261024):
        cells = white_coordinates(masks, n)
        pf = modular_pfaffian(pairwise_skew_matrix(*cells))
        assert backend.classify_cells(*cells)[0] == pf, (m, n, masks)
        tally("grid", pf)
    rng = random.Random(113)
    for _ in range(100):
        a = matched_sparse_skew(rng, 2 * rng.randrange(15, 46))
        pf = modular_pfaffian(a)
        got = _schur(a)
        assert _condense(a)[0] == pf, a
        assert got[0] == pf, a
        tally("matching", pf)
    # nonzero and negative Pfaffians in every family, so that the test
    # cannot pass on zeros alone
    assert all(nonzero >= 20 and negative >= 10 for nonzero, negative in found.values()), found


# --- the line-degree order ---------------------------------------------------


def assert_ordered_sign(rows, cols, label, found):
    """``classify_cells`` gives the Schur kernel's and the Bareiss oracle's (Pf, nullity) of A_C in label order.

    ``found`` tallies, from the cut on, the nonzero and negative Pfaffians
    and the odd line-degree orders, whose sign ``classify_cells`` must undo.
    """
    a = backend.skew_matrix(rows, cols)
    got = backend.classify_cells(rows, cols)
    assert got == _schur(a) == _condense(a), label
    if len(rows) >= backend._ORDER_CUT:
        found["ordered"] += 1
        found["nonzero"] += got[0] != 0
        found["negative"] += got[0] < 0
        found["odd"] += backend._line_degree_order(rows, cols)[1]


def test_line_degree_order_sorts_by_line_degree():
    # stable: fewest white squares in the square's row and column first,
    # ties in label order; the parity is that of the permutation
    for diagram in random_diagrams(LARGE_SHAPES, 40, seed=20261026):
        rows, cols = white_coordinates(diagram.row_masks, diagram.cols)
        at, odd = backend._line_degree_order(rows, cols)
        degree = [rows.count(r) + cols.count(c) for r, c in zip(rows, cols)]
        order = sorted(range(len(rows)), key=lambda k: (degree[k], k))
        assert [at[label] for label in order] == list(range(len(rows))), str(diagram)
        assert odd == (permutation_sign(order) == -1), str(diagram)


def test_ordered_matrix_is_the_congruent_matrix():
    # the matrix condensed from the cut on is P^T A_C P: entry (at[k], at[l])
    # of it is entry (k, l) of A_C, so the signs come from label order
    for diagram in random_diagrams(LARGE_SHAPES, 20, seed=20261027):
        rows, cols = white_coordinates(diagram.row_masks, diagram.cols)
        a = backend.skew_matrix(rows, cols)
        b, odd = backend._ordered_matrix(rows, cols)
        at, parity = backend._line_degree_order(rows, cols)
        assert odd == parity
        assert all(b[at[k]][at[l]] == a[k][l] for k in range(len(a)) for l in range(len(a))), str(diagram)


def test_classify_cells_on_both_sides_of_the_cut():
    # seeded diagrams with d = cut - 2 .. cut + 2, the large sample and random
    # grids up to 9x11: the sign of det(P) is undone above the cut, and
    # below it nothing is reordered. Floors on nonzero and negative
    # Pfaffians and on odd orders, so that the test cannot pass on zeros or
    # on orders that move nothing
    cut = backend._ORDER_CUT
    found = dict.fromkeys(("ordered", "nonzero", "negative", "odd"), 0)
    near = {d: [] for d in range(cut - 2, cut + 3)}
    for diagram in random_diagrams([(6, 6), (6, 7), (7, 6)], 2000, seed=20261028):
        same_d = near.get(diagram.white_count)
        if same_d is not None and len(same_d) < 40:
            same_d.append(diagram)
    assert all(len(diagrams) == 40 for diagrams in near.values()), {d: len(v) for d, v in near.items()}
    large = random_diagrams(LARGE_SHAPES, 80, seed=20261029)
    for diagram in [diagram for diagrams in near.values() for diagram in diagrams] + large:
        assert_ordered_sign(*white_coordinates(diagram.row_masks, diagram.cols), str(diagram), found)
    shapes = [(m, n) for m in range(1, 10) for n in range(1, 12)]
    for m, n, masks in random_grids(shapes, 3 * len(shapes), seed=20261029):
        assert_ordered_sign(*white_coordinates(masks, n), (m, n, masks), found)
    assert found["ordered"] >= 200 and found["nonzero"] >= 30 and found["negative"] >= 15, found
    assert found["odd"] >= 80 and found["ordered"] - found["odd"] >= 80, found
