"""Perfect matchings of the white-square graph and the matching-sum Pfaffian.

The white squares of a labeled diagram form a directed graph with an edge
from one square to another when the first is strictly left of the second in
the same row, or strictly above it in the same column; with admissible
labels every edge goes from the smaller label to the larger. A perfect
matching pairs all white squares along such edges, its sign is the sign of
the permutation (1..2m) -> (i1, j1, ..., im, jm) computed by counting
inversions, and the signed sum over all perfect matchings is the Pfaffian
of the skew adjacency matrix. This brute-force route is exponential and is
meant as an independent cross-check of the elimination kernel at small
sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .diagram import CauchonDiagram, LabeledCauchonDiagram, canonical_labels

__all__ = [
    "MalformedMatchingError",
    "Matching",
    "white_edges",
    "inversions",
    "inversions_between",
    "matching_sign",
    "enumerate_matchings",
    "pfaffian_by_matchings",
    "vertical_edge_sums",
]


class MalformedMatchingError(ValueError):
    """Edge list that is not a matching with i < j on every edge."""


def _as_labeled(source: CauchonDiagram | LabeledCauchonDiagram) -> LabeledCauchonDiagram:
    if isinstance(source, LabeledCauchonDiagram):
        return source
    return canonical_labels(source)


@dataclass(frozen=True)
class Matching:
    """A perfect matching, as a tuple of (i, j) edges with i < j."""

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _endpoints(self.edges)

    @property
    def sign(self) -> int:
        return matching_sign(self.edges)


def white_edges(source: CauchonDiagram | LabeledCauchonDiagram) -> tuple[tuple[int, int], ...]:
    """Same-row-left and same-column-above (smaller, larger) label pairs, ascending."""
    labeled = _as_labeled(source)
    cells = labeled.cells
    labels = labeled.labels
    edges = []
    for a in range(len(cells)):
        ra, ca = cells[a]
        for b in range(a + 1, len(cells)):
            rb, cb = cells[b]
            if ra == rb or ca == cb:
                edges.append((labels[a], labels[b]))
    return tuple(edges)


def inversions(seq: Sequence[int]) -> int:
    """Number of out-of-order pairs (j < k with seq[j] > seq[k])."""
    count = 0
    for j in range(len(seq)):
        x = seq[j]
        for k in range(j + 1, len(seq)):
            if x > seq[k]:
                count += 1
    return count


def inversions_between(x: Sequence[int], y: Sequence[int]) -> int:
    """Number of pairs with an entry of ``y`` smaller than an entry of ``x``.

    This counts exactly the cross-block inversions of the concatenation
    ``x + y``.
    """
    return sum(1 for b in y for a in x if b < a)


def _endpoints(edges: Iterable[tuple[int, int]]) -> list[int]:
    # (i1, j1, ..., im, jm), after checking i < j and no repeated endpoint
    seq: list[int] = []
    seen: set[int] = set()
    for i, j in edges:
        if i >= j:
            raise MalformedMatchingError(f"edge ({i}, {j}) must have i < j")
        if i in seen or j in seen:
            raise MalformedMatchingError(f"edge ({i}, {j}) repeats an endpoint")
        seen.add(i)
        seen.add(j)
        seq.append(i)
        seq.append(j)
    return seq


def matching_sign(matching: Matching | Iterable[tuple[int, int]]) -> int:
    """Sign of the permutation sending 1..2m to (i1, j1, ..., im, jm).

    Every edge must satisfy i < j; under that convention the value does not
    depend on the order in which the edges are listed.
    """
    edges = matching.edges if isinstance(matching, Matching) else matching
    return -1 if inversions(_endpoints(edges)) % 2 else 1


def _iter_edge_sets(
    labeled: LabeledCauchonDiagram,
) -> Iterator[tuple[tuple[int, int], ...]]:
    # pair the lowest unmatched label with each admissible partner in turn
    labels = labeled.labels
    adjacency: dict[int, list[int]] = {label: [] for label in labels}
    for i, j in white_edges(labeled):
        adjacency[i].append(j)

    def rec(remaining: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not remaining:
            yield ()
            return
        low = remaining[0]
        pool = set(remaining)
        for partner in adjacency[low]:
            if partner in pool:
                rest = tuple(v for v in remaining[1:] if v != partner)
                for tail in rec(rest):
                    yield ((low, partner),) + tail

    if len(labels) % 2:
        return
    yield from rec(labels)


def enumerate_matchings(
    source: CauchonDiagram | LabeledCauchonDiagram,
) -> Iterator[Matching]:
    """Every perfect matching exactly once.

    The stream is empty when the white count is odd and contains the single
    empty matching when there are no white squares.
    """
    labeled = _as_labeled(source)
    for edges in _iter_edge_sets(labeled):
        yield Matching(edges)


def pfaffian_by_matchings(source: CauchonDiagram | LabeledCauchonDiagram) -> int:
    """Signed count of perfect matchings; 0 when the white count is odd."""
    labeled = _as_labeled(source)
    return sum(matching_sign(edges) for edges in _iter_edge_sets(labeled))


def vertical_edge_sums(
    source: CauchonDiagram | LabeledCauchonDiagram,
) -> dict[frozenset[int], int]:
    """Signed matching sums keyed by the set of columns holding vertical edges.

    One pass over the perfect matchings adds each sign under the columns
    whose two squares it pairs; an absent key reads as 0. Only defined for
    two-row diagrams without entirely black columns.
    """
    labeled = _as_labeled(source)
    diagram = labeled.diagram
    if diagram.rows != 2:
        raise ValueError(f"needs a 2-row diagram, got {diagram.rows} rows")
    if diagram.black_column_mask():
        raise ValueError("diagram has an entirely black column; strip it first")
    column = {label: col for label, (_, col) in zip(labeled.labels, labeled.cells)}
    sums: dict[frozenset[int], int] = {}
    for edges in _iter_edge_sets(labeled):
        used = frozenset(column[i] for i, j in edges if column[i] == column[j])
        sums[used] = sums.get(used, 0) + matching_sign(edges)
    return sums
