import random

import pytest

from cauchon import CauchonDiagram, enumerate_diagrams, enumerate_matchings, matching_sign
from cauchon.census import _row_candidates, _state_wires

# A well-formed 4x6 grid with 14 white squares; black cells exercise both
# clauses of the diagram condition.
GRID_4x6 = "..#.#.\n#.#...\n##....\n####.."

# A strictly increasing gapped relabeling of GRID_4x6's white squares:
# label k (row-major) becomes GAPPED_LABELS_4x6[k - 1].
GAPPED_LABELS_4x6 = (1, 3, 4, 7, 8, 10, 11, 13, 15, 16, 17, 18, 19, 22)

# A 2x6 grid without black columns: row 2 has a single leading black square.
GRID_2x6 = "..#.#.\n#....."


@pytest.fixture(scope="session")
def small_diagrams():
    """All diagrams for every shape with m, n <= 3, keyed by (m, n)."""
    return {
        (m, n): list(enumerate_diagrams(m, n))
        for m in range(1, 4)
        for n in range(1, 4)
    }


def sample_diagrams(max_m: int, max_n: int, count: int, seed: int) -> list[CauchonDiagram]:
    """Deterministic random sample across all shapes up to max_m x max_n."""
    rng = random.Random(seed)
    pools = [
        list(enumerate_diagrams(m, n))
        for m in range(1, max_m + 1)
        for n in range(1, max_n + 1)
    ]
    out = []
    for _ in range(count):
        pool = rng.choice(pools)
        out.append(rng.choice(pool))
    return out


def random_diagrams(shapes, count: int, seed: int) -> list[CauchonDiagram]:
    """Deterministic diagrams of shapes too large to enumerate, cycling through ``shapes``.

    Each row is drawn uniformly from the rows admissible under the ones
    above it (the census's ``_row_candidates``), so every draw is a diagram.
    """
    rng = random.Random(seed)
    out = []
    for k in range(count):
        m, n = shapes[k % len(shapes)]
        above = (1 << n) - 1
        masks = []
        for _ in range(m):
            row = rng.choice(_row_candidates(n, above))
            masks.append(row)
            above &= row
        out.append(CauchonDiagram(m, n, tuple(masks)))
    return out


def decode_states(width: int, states: dict[int, int]) -> dict[tuple[int, tuple[int, ...]], int]:
    """Packed transfer states of width ``width`` as (black-column mask, wires) keys, counts kept.

    The wires are those ``census._diagram_wires`` gives a diagram: wire j
    holds 2 * pi(j) + its parity. Two packed states never decode to one key.
    """
    full = (1 << width) - 1
    decoded = {(state & full, _state_wires(width, state)): count for state, count in states.items()}
    assert len(decoded) == len(states), "two packed states decode to one key"
    return decoded


def relabeled_matching_sum(diagram: CauchonDiagram, labels) -> int:
    """Signed matching sum with label k of every edge mapped to labels[k - 1].

    For a strictly increasing ``labels`` every mapped edge keeps i < j, and
    the sum is the Pfaffian whatever the label values.
    """
    return sum(
        matching_sign((labels[i - 1], labels[j - 1]) for i, j in matching.edges)
        for matching in enumerate_matchings(diagram)
    )
