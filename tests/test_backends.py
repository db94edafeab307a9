"""Cross-checks between the exact condensation kernel and slow reference
implementations written here from first principles."""

import itertools
import random
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


def test_build_ext_inplace_builds_nothing(tmp_path):
    # perfbench's set-up runs this command on a fresh copy of the checkout
    root = Path(__file__).resolve().parent.parent
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(root / name, tmp_path / name)
    shutil.copytree(root / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert {path.suffix for path in (tmp_path / "src" / "cauchon").iterdir()} == {".py"}


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
