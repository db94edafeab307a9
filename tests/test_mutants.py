"""The mutation catalogue in ``tests/mutants.py`` stays in step with the code.

The catalogue itself runs apart (``python tests/mutants.py``); here each
snippet must occur exactly once in its module, so a refactor that moves the
code must move the catalogue with it, and each mutant must compile, so that
no mutant is killed by a syntax error alone.
"""

from pathlib import Path

import pytest

from mutants import CATALOGUE, PACKAGE, source

TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize("mutant", CATALOGUE, ids=[mutant.name for mutant in CATALOGUE])
def test_mutant_applies_once_and_compiles(mutant):
    text = source(mutant.module)
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    compile(text.replace(mutant.snippet, mutant.replacement), str(PACKAGE / f"{mutant.module}.py"), "exec")
    assert mutant.tests and all((TESTS / name).is_file() for name in mutant.tests)


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in CATALOGUE]
    assert len(set(names)) == len(names)
