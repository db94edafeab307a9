"""Exhaustive census of diagrams: primitive counts and nullity histograms.

The census classifies diagrams by the nullity of their skew adjacency
matrix (nullity 0 means primitive) without building a single matrix. By
Bell, Casteels and Launois ("Enumeration of H-strata in quantum matrices
with respect to dimension", J. Combin. Theory Ser. A 119, 2012), that
nullity is the number of even-length cycles of the diagram's toric
permutation: the pipe dream in which black squares are crosses and white
squares elbows (Postnikov, arXiv math/0609764). The permutation is built
one row at a time, so a transfer pass over row states replaces the
enumeration. A state holds the mask of columns black so far, which decides
the rows that may follow, and for each column wire the label it has reached
and the parity of the path that took it there, all packed into one int
(see ``_sweep``). Diagrams that reach the same state have the same nullity
whatever rows follow, so each state carries only a count of diagrams. The
pass runs over rows of the shorter side, since a diagram and its transpose
have the same nullity, in one process with exact integer counts. The states
after k rows are those of the k-row diagrams, so one sweep over a width
serves every row count it reaches: ``run_censuses`` runs one sweep per
distinct width for a whole table.

This module is all that ``count`` and ``table`` run, so it imports only
``math``, ``functools``, ``collections`` and ``itertools``, which
``functools`` loads anyway: each command starts a fresh interpreter, and
start-up costs more than a small census. The closed formulas and identity
checks live in ``cauchon.checks``.
"""

from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import permutations
from math import gcd

__all__ = ["CensusRecord", "run_census", "run_censuses"]


class CensusRecord(namedtuple("CensusRecord", "m n nullity_histogram")):
    """Aggregate counts for one grid shape, all read off its nullity histogram.

    ``nullity_histogram`` maps nullity to diagram count; nullity 0 means
    primitive.
    """

    __slots__ = ()

    @property
    def total(self) -> int:
        return sum(self.nullity_histogram.values())

    @property
    def primitive(self) -> int:
        return self.nullity_histogram.get(0, 0)

    def proportion(self):
        """primitive / total as a reduced ``fractions.Fraction``."""
        from fractions import Fraction

        return Fraction(self.primitive, self.total)

    def to_payload(self) -> dict:
        """Deterministic JSON-ready dict."""
        hist = {str(k): self.nullity_histogram[k] for k in sorted(self.nullity_histogram)}
        common = gcd(self.primitive, self.total)
        return {
            "m": self.m,
            "n": self.n,
            "total": self.total,
            "primitive": self.primitive,
            "proportion_num": self.primitive // common,
            "proportion_den": self.total // common,
            "nullity_histogram": hist,
        }


def _check_shape(m: int, n: int) -> None:
    """Raise ValueError unless m x n is a grid shape: at least one row, no negative column count."""
    if m < 1 or n < 0:
        raise ValueError(f"grid shape {m}x{n} is not valid")


@lru_cache(maxsize=None)
def _row_candidates(n: int, above_black: int) -> tuple[int, ...]:
    """All admissible next-row masks given the fully-black columns so far.

    Every admissible row is a leading black run of some length p, plus black
    squares in fully-black columns strictly right of column p + 1 (column
    p + 1 itself stays white, which is what makes p the run length). Rows
    come out in left-to-right lexicographic order, white first: by run
    length, and for one run length by doubling the list over its free
    columns from the rightmost one in, so each added column outranks the
    ones before it. The full row comes last.
    """
    out: list[int] = []
    for p in range(n):
        rows = [(1 << p) - 1]
        for bit in range(n - 1, p, -1):
            if above_black >> bit & 1:
                rows += [row | 1 << bit for row in rows]
        out += rows
    out.append((1 << n) - 1)
    return tuple(out)


@lru_cache(maxsize=None)
def _wire_moves(width: int, row: int) -> tuple[tuple[int, int], ...]:
    """(source wire, parity flip) for each column wire across one row.

    The white columns j_1 < ... < j_k of the row (black where ``row`` has a
    bit) each take the wire of the white column before them, and j_1 takes
    the wire of j_k with its parity flipped. Black columns keep their wires.
    Cached: ``_steps`` and every single diagram's fold share one per row.
    """
    moves = [(j, 0) for j in range(width)]
    white = [j for j in range(width) if not row >> j & 1]
    for before, after in zip(white, white[1:]):
        moves[after] = (before, 0)
    if white:
        moves[white[0]] = (white[-1], 1)
    return tuple(moves)


@lru_cache(maxsize=None)
def _steps(width: int) -> tuple[list[tuple[int, ...]], list[list[tuple[list[int], list[int], int]]]]:
    """The permutations of the columns in rank order, and each mask's packed row steps.

    ``steps[mask]`` holds (ranks, parities, mask & row) for each row that may
    follow ``mask``: ``ranks`` maps a permutation's rank to the rank after
    the row, shifted to bit 2w, and ``parities`` the parity bits to theirs
    after it, shifted to bit w. Both are read off ``_wire_moves``.
    """
    perms = list(permutations(range(width)))
    rank = dict(zip(perms, [r << 2 * width for r in range(len(perms))]))
    columns = list(zip(*perms))
    tables = []
    for row in range(1 << width):
        moves = _wire_moves(width, row)
        sources = [src for src, _ in moves]
        # wire j takes wire sources[j], in every permutation at once; width 0
        # has no columns to zip, and its one permutation has rank 0
        ranks = list(map(rank.__getitem__, zip(*[columns[src] for src in sources]))) if width else [0]
        # parity bit sources[j] moves to bit j, then the flip: built by doubling
        parities = [sum(flip << j for j, (_, flip) in enumerate(moves))]
        for src in range(width):
            bit = 1 << sources.index(src)
            parities += [p ^ bit for p in parities]
        tables.append((ranks, [p << width for p in parities]))
    return perms, [[(*tables[row], mask & row) for row in _row_candidates(width, mask)] for mask in range(1 << width)]


def _sweep(width: int, rows: int) -> Iterator[dict[int, int]]:
    """The states after 0, 1, ..., ``rows`` rows of width ``width``, each with its diagram count.

    Level k holds the states the k x ``width`` diagrams end in, so one sweep
    serves every row count up to ``rows``. A state is one int: the
    black-column mask in bits 0..w-1, the wire parities in bits w..2w-1 and
    above them the rank of the wire permutation pi. Wire j holds column
    pi(j) with its parity, as ``_diagram_wires`` spells out. The start is the
    full mask, every parity odd and the identity, which has rank 0.
    """
    full = (1 << width) - 1
    states = {full << width | full: 1}
    yield states
    steps = _steps(width)[1]
    shift = 2 * width
    for _ in range(rows):
        new: dict[int, int] = {}
        get = new.get
        for state, count in states.items():
            perm = state >> shift
            par = state >> width & full
            for ranks, parities, low in steps[state & full]:
                key = ranks[perm] | parities[par] | low
                new[key] = get(key, 0) + count
        states = new
        yield states


def _state_wires(width: int, state: int) -> tuple[int, ...]:
    """The wires of a packed state: wire j holds 2 * pi(j) + its parity."""
    perm = _steps(width)[0][state >> 2 * width]
    return tuple([2 * p + (state >> width + j & 1) for j, p in enumerate(perm)])


def _diagram_wires(width: int, rows: tuple[int, ...]) -> tuple[int, ...]:
    """The wires one diagram ends in: its row masks folded from the transfer's start.

    The nullity of a single diagram is ``_even_cycles`` of these wires, the
    same count the census takes over the last level of ``_sweep``.
    """
    wires = tuple(2 * w + 1 for w in range(width))
    for row in rows:
        wires = tuple([wires[src] ^ flip for src, flip in _wire_moves(width, row)])
    return wires


def _even_cycles(wires: tuple[int, ...]) -> int:
    """Number of cycles of the wire permutation whose parities sum to even."""
    seen = [False] * len(wires)
    count = 0
    for start in range(len(wires)):
        if seen[start]:
            continue
        parity = 0
        w = start
        while not seen[w]:
            seen[w] = True
            parity ^= wires[w] & 1
            w = wires[w] >> 1
        count += not parity
    return count


def _histogram(width: int, states: dict[int, int], nullities: dict[int, int] | None = None) -> dict[int, int]:
    """Nullity histogram of the diagrams that end in the packed ``states`` of width ``width``.

    The mask plays no part in the nullity, so each state is decoded with it
    cleared, once: ``nullities`` keeps what is decoded, for the levels of
    one sweep to share.
    """
    nullities = {} if nullities is None else nullities
    clear = ~((1 << width) - 1)
    hist: dict[int, int] = {}
    for state, count in states.items():
        key = state & clear
        nul = nullities.get(key)
        if nul is None:
            nul = nullities[key] = _even_cycles(_state_wires(width, key))
        hist[nul] = hist.get(nul, 0) + count
    return dict(sorted(hist.items()))


def run_censuses(shapes: Iterable[tuple[int, int]]) -> list[CensusRecord]:
    """Classify all of C_{m,n} for each (m, n) of ``shapes``: one record per shape, in order.

    The nullity of a diagram's skew adjacency matrix is the number of even
    cycles of its toric permutation (Bell, Casteels and Launois 2012), and
    that permutation is built row by row. A diagram and its transpose have
    the same nullity, so shape (m, n) is the level max(m, n) of the sweep of
    width min(m, n): one sweep per distinct width, carried to the largest
    row count asked of it, serves every shape of that width, transposes and
    repeats included. Each record gets its own copy of its level's histogram.
    """
    shapes = list(shapes)
    for m, n in shapes:
        _check_shape(m, n)
    levels: dict[int, set[int]] = {}
    for m, n in shapes:
        levels.setdefault(min(m, n), set()).add(max(m, n))
    found: dict[tuple[int, int], dict[int, int]] = {}
    for width, wanted in levels.items():
        nullities: dict[int, int] = {}
        for rows, states in enumerate(_sweep(width, max(wanted))):
            if rows in wanted:
                found[width, rows] = _histogram(width, states, nullities)
    return [CensusRecord(m, n, dict(found[min(m, n), max(m, n)])) for m, n in shapes]


def run_census(m: int, n: int) -> CensusRecord:
    """Classify all of C_{m,n}, with the full nullity histogram: ``run_censuses`` of one shape."""
    return run_censuses([(m, n)])[0]
