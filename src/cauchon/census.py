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
and the parity of the path that took it there. Diagrams that reach the same
state have the same nullity whatever rows follow, so each state carries
only a count of diagrams. The pass runs over rows of the shorter side, since
a diagram and its transpose have the same nullity, in one process with
exact integer counts. The states after k rows are those of the k-row
diagrams, so one sweep over a width serves every row count it reaches:
``run_censuses`` runs one sweep per distinct width for a whole table.

This module is all that ``count`` and ``table`` run, so it imports only
``math``, ``functools`` and ``collections``, which ``functools`` loads
anyway: each command starts a fresh interpreter, and start-up costs more
than a small census. The closed formulas and identity checks
live in ``cauchon.checks``.
"""

from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import lru_cache
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


def _wire_moves(width: int, row: int) -> tuple[tuple[int, int], ...]:
    """(source wire, parity flip) for each column wire across one row.

    The white columns j_1 < ... < j_k of the row (black where ``row`` has a
    bit) each take the wire of the white column before them, and j_1 takes
    the wire of j_k with its parity flipped. Black columns keep their wires.
    """
    moves = [(j, 0) for j in range(width)]
    white = [j for j in range(width) if not row >> j & 1]
    for before, after in zip(white, white[1:]):
        moves[after] = (before, 0)
    if white:
        moves[white[0]] = (white[-1], 1)
    return tuple(moves)


def _sweep(width: int, rows: int) -> Iterator[dict[tuple[int, tuple[int, ...]], int]]:
    """The states after 0, 1, ..., ``rows`` rows of width ``width``, each with its diagram count.

    Level k holds the states the k x ``width`` diagrams end in, so one sweep
    serves every row count up to ``rows``. A state is (black-column mask,
    wires): wire w holds 2 * pi(w) + parity, where pi is a permutation of the
    columns. The start is the full mask, the identity and every parity odd.
    """
    states = {((1 << width) - 1, tuple(2 * w + 1 for w in range(width))): 1}
    yield states
    moves: dict[int, tuple[tuple[int, int], ...]] = {}
    for _ in range(rows):
        new: dict[tuple[int, tuple[int, ...]], int] = {}
        for (above, wires), count in states.items():
            for row in _row_candidates(width, above):
                if row not in moves:
                    moves[row] = _wire_moves(width, row)
                key = (above & row, tuple([wires[src] ^ flip for src, flip in moves[row]]))
                new[key] = new.get(key, 0) + count
        states = new
        yield states


def _transfer(width: int, rows: int) -> dict[tuple[int, tuple[int, ...]], int]:
    """The states the ``rows`` x ``width`` diagrams end in: the last level of a sweep."""
    for states in _sweep(width, rows):
        pass
    return states


def _diagram_wires(width: int, rows: tuple[int, ...]) -> tuple[int, ...]:
    """The wires one diagram ends in: its row masks folded from the transfer's start.

    The nullity of a single diagram is ``_even_cycles`` of these wires, the
    same count the census takes over the states ``_transfer`` ends in.
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


def _histogram(states: dict[tuple[int, tuple[int, ...]], int]) -> dict[int, int]:
    """Nullity histogram of the diagrams that end in ``states``."""
    hist: dict[int, int] = {}
    for (_, wires), count in states.items():
        nul = _even_cycles(wires)
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
        if m < 1 or n < 0:
            raise ValueError(f"grid shape {m}x{n} is not valid")
    levels: dict[int, set[int]] = {}
    for m, n in shapes:
        levels.setdefault(min(m, n), set()).add(max(m, n))
    found: dict[tuple[int, int], dict[int, int]] = {}
    for width, wanted in levels.items():
        for rows, states in enumerate(_sweep(width, max(wanted))):
            if rows in wanted:
                found[width, rows] = _histogram(states)
    return [CensusRecord(m, n, dict(found[min(m, n), max(m, n)])) for m, n in shapes]


def run_census(m: int, n: int) -> CensusRecord:
    """Classify all of C_{m,n}, with the full nullity histogram: ``run_censuses`` of one shape."""
    return run_censuses([(m, n)])[0]
