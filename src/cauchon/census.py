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
exact integer counts.

This module is all that ``count`` and ``table`` run, so it imports only
``time``, ``math`` and ``functools``: each command starts a fresh
interpreter, and start-up costs more than a small census. The closed
formulas and identity checks live in ``cauchon.checks``.
"""

import time
from functools import lru_cache
from math import gcd

__all__ = ["CensusRecord", "run_census"]


class CensusRecord:
    """Aggregate counts for one grid shape.

    ``nullity_histogram`` maps nullity to diagram count (histogram[0]
    equals the primitive count). ``elapsed`` is wall time in seconds; it is
    left out of equality and of data payloads.
    """

    __slots__ = ("m", "n", "total", "primitive", "nullity_histogram", "elapsed")

    def __init__(
        self,
        m: int,
        n: int,
        total: int,
        primitive: int,
        nullity_histogram: dict[int, int],
        elapsed: float = 0.0,
    ):
        self.m = m
        self.n = n
        self.total = total
        self.primitive = primitive
        self.nullity_histogram = nullity_histogram
        self.elapsed = elapsed

    def _key(self) -> tuple:
        return (self.m, self.n, self.total, self.primitive, self.nullity_histogram)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"CensusRecord({fields})"

    def proportion(self):
        """primitive / total as a reduced ``fractions.Fraction``."""
        from fractions import Fraction

        return Fraction(self.primitive, self.total)

    def to_payload(self) -> dict:
        """Deterministic JSON-ready dict (no timing information)."""
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


def _transfer(width: int, rows: int) -> dict[tuple[int, tuple[int, ...]], int]:
    """The states the ``rows`` x ``width`` diagrams end in, each with its diagram count.

    A state is (black-column mask, wires): wire w holds 2 * pi(w) + parity,
    where pi is a permutation of the columns. The start is the full mask,
    the identity and every parity odd.
    """
    states = {((1 << width) - 1, tuple(2 * w + 1 for w in range(width))): 1}
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


def _transfer_histogram(width: int, rows: int) -> dict[int, int]:
    """Nullity histogram of the ``rows`` x ``width`` diagrams, from one transfer."""
    hist: dict[int, int] = {}
    for (_, wires), count in _transfer(width, rows).items():
        nul = _even_cycles(wires)
        hist[nul] = hist.get(nul, 0) + count
    return dict(sorted(hist.items()))


def run_census(m: int, n: int) -> CensusRecord:
    """Classify all of C_{m,n} in one transfer pass, with the full nullity histogram.

    The nullity of a diagram's skew adjacency matrix is the number of even
    cycles of its toric permutation (Bell, Casteels and Launois 2012), and
    that permutation is built row by row. The pass runs over rows of the
    shorter side: a diagram and its transpose have the same nullity.
    """
    if m < 1 or n < 0:
        raise ValueError(f"grid shape {m}x{n} is not valid")
    start = time.perf_counter()
    hist = _transfer_histogram(min(m, n), max(m, n))
    return CensusRecord(
        m=m,
        n=n,
        total=sum(hist.values()),
        primitive=hist.get(0, 0),
        nullity_histogram=hist,
        elapsed=time.perf_counter() - start,
    )
