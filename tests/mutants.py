#!/usr/bin/env python3
"""The mutation catalogue: source changes that the Tier-1 tests must each fail.

Each entry names a mutant, the module of ``src/cauchon`` it edits, an exact
snippet of that module, the snippet's replacement and the test files
expected to kill it. For each mutant in turn the script copies ``src``,
``tests``, ``setup.py`` and ``pyproject.toml`` (which the tests read) to a
temporary directory, replaces the snippet there, and runs ``pytest -x -q``
on the mutant's test files in a fresh interpreter. A mutant is killed when
that run fails and survives when it passes. An unmutated control copy runs
every listed test file first, so a test that fails on the unchanged code
cannot pass for a kill. The script prints each mutant's outcome and time,
and exits 1 if the control fails, a snippet does not occur exactly once, or
a mutant survives.

pytest does not collect this file; ``tests/test_mutants.py`` checks the
catalogue's snippets in Tier-1. Run from the repository root:

    python tests/mutants.py

A survivor is mended by a new or stronger test, or, if it computes the same
results as the code (an equivalent mutant), reported with that reason; a
mutant is not dropped to make the catalogue pass.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cauchon"

#: a run that takes longer than this many seconds is stopped and counts as killed
TIMEOUT = 300

Mutant = namedtuple("Mutant", "name module snippet replacement tests")

_BACKENDS = ("test_backends.py",)

CATALOGUE = (
    # the Schur kernel: a coupling that p does not divide taken as its
    # floor quotient
    Mutant("schur-coupling-floor", "backend", "if rs or rt:", "if False:", _BACKENDS),
    Mutant("schur-unit-pivot-no-product", "backend", "cs = asi * p", "cs = asi", _BACKENDS),
    Mutant(
        "schur-no-swap-sign",
        "backend",
        "row_t = _swap(a, row_s, t, j0)\n            sign = -sign\n",
        "row_t = _swap(a, row_s, t, j0)\n",
        _BACKENDS,
    ),
    # one coupling, to row t
    Mutant(
        "schur-ct-1-subtracts",
        "backend",
        "if ct == 1:\n                    for j in tail:\n                        row_i[j] += row_s[j]\n",
        "if ct == 1:\n                    for j in tail:\n                        row_i[j] -= row_s[j]\n",
        _BACKENDS,
    ),
    Mutant("schur-ct-minus-1-adds", "backend", "row_i[j] -= row_s[j]\n", "row_i[j] += row_s[j]\n", _BACKENDS),
    Mutant("schur-ct-no-product", "backend", "row_i[j] += ct * row_s[j]\n", "row_i[j] += row_s[j]\n", _BACKENDS),
    # one coupling, to row s
    Mutant("schur-cs-1-adds", "backend", "row_i[j] -= row_t[j]\n", "row_i[j] += row_t[j]\n", _BACKENDS),
    Mutant(
        "schur-cs-minus-1-subtracts",
        "backend",
        "elif cs == -1:\n                    for j in tail:\n                        row_i[j] += row_t[j]\n",
        "elif cs == -1:\n                    for j in tail:\n                        row_i[j] -= row_t[j]\n",
        _BACKENDS,
    ),
    Mutant("schur-cs-no-product", "backend", "row_i[j] -= cs * row_t[j]\n", "row_i[j] -= row_t[j]\n", _BACKENDS),
    # two unit quotients
    Mutant(
        "schur-units-equal-plus-adds-row-t",
        "backend",
        "row_i[j] += row_s[j] - row_t[j]\n",
        "row_i[j] += row_s[j] + row_t[j]\n",
        _BACKENDS,
    ),
    Mutant(
        "schur-units-equal-minus-adds",
        "backend",
        "row_i[j] -= row_s[j] - row_t[j]\n",
        "row_i[j] += row_s[j] - row_t[j]\n",
        _BACKENDS,
    ),
    Mutant(
        "schur-units-ct-plus-subtracts-row-t",
        "backend",
        "row_i[j] += row_s[j] + row_t[j]\n",
        "row_i[j] += row_s[j] - row_t[j]\n",
        _BACKENDS,
    ),
    Mutant(
        "schur-units-ct-minus-adds",
        "backend",
        "row_i[j] -= row_s[j] + row_t[j]\n",
        "row_i[j] += row_s[j] + row_t[j]\n",
        _BACKENDS,
    ),
    Mutant("schur-units-read-ct-twice", "backend", "if cs == ct:", "if ct == ct:", _BACKENDS),
    # two other quotients
    Mutant(
        "schur-general-no-cs-product",
        "backend",
        "row_i[j] += ct * row_s[j] - cs * row_t[j]\n",
        "row_i[j] += ct * row_s[j] - row_t[j]\n",
        _BACKENDS,
    ),
    # an entry that p does not divide: the floor quotient kept, the
    # numerator negated, the Pfaffian left a Fraction
    Mutant("schur-entry-floor-kept", "backend", "if r:", "if False:", _BACKENDS),
    Mutant(
        "schur-entry-wrong-sign",
        "backend",
        "Fraction(ati * row_s[j] - asi * row_t[j], p)",
        "Fraction(asi * row_t[j] - ati * row_s[j], p)",
        _BACKENDS,
    ),
    Mutant("schur-pfaffian-not-int", "backend", "sign * int(pf)", "sign * pf", _BACKENDS),
    # the coupled list: rows coupled to row t alone left out, or built
    # ascending, so that each pop leaves the columns left of its row
    Mutant("schur-tail-skips-row-t", "backend", "if row_s[i] or row_t[i]", "if row_s[i]", _BACKENDS),
    Mutant("schur-tail-ascending", "backend", "range(d - 1, s + 1, -1)", "range(s + 2, d)", _BACKENDS),
    # the swap that moves a pivot partner into place
    Mutant(
        "swap-crossing-not-negated",
        "backend",
        "row_t[k] = -row_k[j]\n        row_k[j] = -row_j[k]\n",
        "row_t[k] = row_k[j]\n        row_k[j] = row_j[k]\n",
        _BACKENDS,
    ),
    Mutant("swap-loop-cut", "backend", "for k in range(t + 1, j):", "for k in range(t + 1, min(j, t + 24)):", _BACKENDS),
    # the line-degree order: det(P) not undone, or its parity read off d
    # alone, without the cycles of P
    Mutant("order-sign-dropped", "backend", "return (-pf if odd else pf), nullity", "return pf, nullity", _BACKENDS),
    Mutant(
        "order-parity-without-cycles",
        "backend",
        "return at, (len(at) - cycles) % 2 == 1",
        "return at, len(at) % 2 == 1",
        _BACKENDS,
    ),
    Mutant(
        "determinant-no-swap-sign",
        "backend",
        "a[k], a[i] = a[i], a[k]\n                    sign = -sign\n",
        "a[k], a[i] = a[i], a[k]\n",
        _BACKENDS,
    ),
    # the transfer and the Cauchon condition
    Mutant("wire-moves-no-flip", "census", "moves[white[0]] = (white[-1], 1)", "moves[white[0]] = (white[-1], 0)", ("test_census.py",)),
    Mutant("even-cycles-counts-odd", "census", "count += not parity", "count += parity", ("test_census.py",)),
    Mutant(
        "row-candidates-no-full-row",
        "census",
        "for p in range(max(top, 0), n + 1):",
        "for p in range(max(top, 0), n):",
        ("test_census.py",),
    ),
    Mutant("row-violation-ignores-black-columns", "diagram", "return beyond_run & ~above_black", "return beyond_run", ("test_diagram.py",)),
    # the matching-sum oracle and the two-row closed form
    Mutant(
        "matching-sign-flipped",
        "matching",
        "return -1 if inversions(_endpoints(edges)) % 2 else 1",
        "return 1 if inversions(_endpoints(edges)) % 2 else -1",
        ("test_matching.py",),
    ),
    Mutant("vert-closed-form-binomial", "checks", "comb(t_size + 1, 2)", "comb(t_size, 2)", ("test_census.py",)),
    # the two-row criterion: its right-hand side, its parity gate, and the
    # table of fully white columns keeping a column white in row 2 alone
    Mutant("criterion-rhs-2m", "criterion", "(2 * m + 2) % 4", "(2 * m) % 4", ("test_criterion.py",)),
    Mutant(
        "criterion-no-parity-gate",
        "criterion",
        "if (top.bit_count() - bottom.bit_count()) % 2:\n        return False\n",
        "pass\n",
        ("test_criterion.py",),
    ),
    Mutant(
        "label-sums-keep-single-white",
        "criterion",
        "elif col in upper:\n            sums[col] = upper[col] + label\n",
        "else:\n            sums[col] = upper.get(col, 0) + label\n",
        ("test_criterion.py",),
    ),
)


def source(module: str) -> str:
    return (PACKAGE / f"{module}.py").read_text(encoding="utf-8")


def copy_checkout(dest: Path) -> None:
    """Copy what the tests need, with no bytecode, to ``dest``."""
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(ROOT / name, dest / name)


def run_tests(copy: Path, files) -> tuple[int | None, str, float]:
    """Exit code (None on timeout), last output line and seconds of ``pytest -x -q`` on ``files`` in ``copy``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *(f"tests/{name}" for name in files)]
    start = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {TIMEOUT} s", time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else done.stderr.strip(), time.perf_counter() - start


def main() -> int:
    start = time.perf_counter()
    bad = [mutant for mutant in CATALOGUE if source(mutant.module).count(mutant.snippet) != 1]
    for mutant in bad:
        print(f"{mutant.name}: snippet found {source(mutant.module).count(mutant.snippet)} times in {mutant.module}.py")
    files = sorted({name for mutant in CATALOGUE for name in mutant.tests})
    with tempfile.TemporaryDirectory() as tmp:
        copy_checkout(Path(tmp))
        code, last, seconds = run_tests(Path(tmp), files)
    print(f"control  {seconds:6.1f}s  {last}")
    if code != 0:
        print("the unmutated copy fails its tests, so no kill can be told")
        return 1
    survivors = []
    for mutant in CATALOGUE:
        if mutant in bad:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            copy_checkout(Path(tmp))
            path = Path(tmp, "src", "cauchon", f"{mutant.module}.py")
            path.write_text(source(mutant.module).replace(mutant.snippet, mutant.replacement), encoding="utf-8")
            code, last, seconds = run_tests(Path(tmp), mutant.tests)
        outcome = "SURVIVED" if code == 0 else "killed"
        if code == 0:
            survivors.append(mutant.name)
        print(f"{outcome:8} {seconds:6.1f}s  {mutant.name}  ({', '.join(mutant.tests)}: {last})")
    print(
        f"{len(CATALOGUE) - len(survivors) - len(bad)} of {len(CATALOGUE)} mutants killed, "
        f"{len(survivors)} survived, {len(bad)} snippets not found once, in {time.perf_counter() - start:.1f}s"
    )
    return 1 if survivors or bad else 0


if __name__ == "__main__":
    sys.exit(main())
