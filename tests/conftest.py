import random

import pytest

from cauchon import CauchonDiagram, enumerate_diagrams, enumerate_matchings, matching_sign
from cauchon.census import _state_wires

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


#: shapes beyond ``sample_diagrams``' reach, for the seeded large sample; the
#: first three are perfbench's query-large shapes
LARGE_SHAPES = [(6, 8), (7, 7), (8, 8), (9, 12)]


def random_diagrams(shapes, count: int, seed: int) -> list[CauchonDiagram]:
    """Deterministic diagrams of shapes too large to enumerate, cycling through ``shapes``.

    Each row is drawn uniformly from the rows admissible under the ones
    above it: one index into the census's ``_row_candidates`` order, built
    by ``admissible_row`` without listing the rows, so every draw is a
    diagram and any width is cheap.
    """
    rng = random.Random(seed)
    out = []
    for k in range(count):
        m, n = shapes[k % len(shapes)]
        above = (1 << n) - 1
        masks = []
        for _ in range(m):
            # 2^|free_p| rows for each run length p, and the full row
            count_rows = 1 + sum(1 << (above >> p + 1).bit_count() for p in range(n))
            row = admissible_row(n, above, rng.randrange(count_rows))
            masks.append(row)
            above &= row
        out.append(CauchonDiagram(m, n, tuple(masks)))
    return out


def admissible_row(n: int, above: int, index: int) -> int:
    """The row at ``index`` of ``census._row_candidates(n, above)``, built without listing the rows.

    ``census._row_masks``' docstring states the index layout: a block of
    2^|free_p| rows for each leading run length p, whose index bit j
    blackens the j-th free column from the right, then the full row.
    """
    for p in range(n):
        free = [bit for bit in range(n - 1, p, -1) if above >> bit & 1]
        if index < 1 << len(free):
            return sum((1 << bit for j, bit in enumerate(free) if index >> j & 1), (1 << p) - 1)
        index -= 1 << len(free)
    return (1 << n) - 1


def random_grids(shapes, count: int, seed: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """Deterministic black/white grids as (m, n, row masks), cycling through ``shapes``.

    Each grid draws its share of white squares uniformly from [0, 1), then
    colours every square alone, so the sample runs from all-black to
    all-white grids. A set bit is a black square. The grids are seldom
    diagrams, and reach skew matrices that no diagram gives.
    """
    rng = random.Random(seed)
    out = []
    for k in range(count):
        m, n = shapes[k % len(shapes)]
        white = rng.random()
        masks = tuple(sum(1 << c for c in range(n) if rng.random() >= white) for _ in range(m))
        out.append((m, n, masks))
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
