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
