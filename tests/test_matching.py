import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchon import (
    CauchonDiagram,
    HasBlackColumnError,
    MalformedMatchingError,
    Matching,
    enumerate_matchings,
    inversions,
    inversions_between,
    matching_sign,
    parse_grid,
    pfaffian_by_matchings,
    vertical_edge_sums,
    white_edges,
)
from conftest import GAPPED_LABELS_4x6, GRID_4x6, relabeled_matching_sum


# --- white graph --------------------------------------------------------------


def test_white_edges_2x2():
    assert set(white_edges(CauchonDiagram.all_white(2, 2))) == {(1, 2), (3, 4), (1, 3), (2, 4)}


def test_white_edges_1x3():
    assert set(white_edges(CauchonDiagram.all_white(1, 3))) == {(1, 2), (1, 3), (2, 3)}


def test_white_edges_all_black():
    assert white_edges(CauchonDiagram.all_black(2, 2)) == ()


def test_white_edges_are_increasing(small_diagrams):
    for diagrams in small_diagrams.values():
        for diagram in diagrams:
            for i, j in white_edges(diagram):
                assert i < j


# --- inversions -----------------------------------------------------------------


def test_inversions_examples():
    assert inversions((1, 3, 2, 4)) == 1
    assert inversions(range(1, 9)) == 0
    for m in range(1, 5):
        assert inversions(tuple(range(2 * m, 0, -1))) == comb(2 * m, 2)


def test_inversions_between_definition():
    # pairs with an element of y below an element of x
    assert inversions_between((3, 1), (2,)) == 1
    assert inversions_between((5, 6), (1, 2)) == 4
    assert inversions_between((1,), (2, 3)) == 0


@settings(max_examples=200, deadline=None)
@given(
    x=st.lists(st.integers(0, 50), max_size=6),
    y=st.lists(st.integers(0, 50), max_size=6),
)
def test_inversions_concatenation_identity(x, y):
    # cross-block inversions of x + y are exactly inversions_between(x, y)
    lhs = inversions(tuple(x) + tuple(y))
    assert lhs == inversions(x) + inversions(y) + inversions_between(x, y)


# --- matching signs ----------------------------------------------------------


def test_matching_sign_identity():
    assert matching_sign([(1, 2), (3, 4)]) == 1


def test_matching_sign_crossing():
    assert matching_sign([(1, 3), (2, 4)]) == -1


def test_matching_sign_rejects_reversed_edge():
    with pytest.raises(MalformedMatchingError):
        matching_sign([(3, 1), (2, 4)])
    with pytest.raises(MalformedMatchingError):
        matching_sign([(1, 1)])


def test_matching_sign_rejects_repeats():
    with pytest.raises(MalformedMatchingError):
        matching_sign([(1, 2), (2, 3)])


def test_matching_sign_edge_order_invariance():
    rng = random.Random(7)
    edge_sets = [
        [(1, 4), (2, 3)],
        [(1, 2), (3, 4), (5, 6)],
        [(1, 5), (2, 6), (3, 4)],
        [(1, 6), (2, 5), (3, 8), (4, 7)],
    ]
    for edges in edge_sets:
        reference = matching_sign(edges)
        for _ in range(20):
            shuffled = edges[:]
            rng.shuffle(shuffled)
            assert matching_sign(shuffled) == reference


def test_matching_dataclass_validates():
    with pytest.raises(MalformedMatchingError):
        Matching(((2, 1),))
    assert Matching(((1, 2),)).sign == 1


# --- matching enumeration -------------------------------------------------------


def test_enumerate_matchings_2x2():
    matchings = {m.edges for m in enumerate_matchings(CauchonDiagram.all_white(2, 2))}
    assert matchings == {((1, 2), (3, 4)), ((1, 3), (2, 4))}


def test_enumerate_matchings_1x2():
    assert len(list(enumerate_matchings(CauchonDiagram.all_white(1, 2)))) == 1


def test_enumerate_matchings_odd_is_empty():
    assert list(enumerate_matchings(CauchonDiagram.all_white(1, 3))) == []


def test_enumerate_matchings_empty_diagram():
    matchings = list(enumerate_matchings(CauchonDiagram.all_black(2, 2)))
    assert [m.edges for m in matchings] == [()]


def test_enumerate_matchings_gapped_label_example():
    labels = GAPPED_LABELS_4x6
    expected = ((1, 4), (3, 8), (7, 13), (10, 16), (11, 17), (15, 18), (19, 22))
    found = {
        tuple((labels[i - 1], labels[j - 1]) for i, j in m.edges)
        for m in enumerate_matchings(parse_grid(GRID_4x6))
    }
    assert expected in found


def test_matchings_are_unique_and_well_formed(small_diagrams):
    for diagrams in small_diagrams.values():
        for diagram in diagrams:
            seen = set()
            for matching in enumerate_matchings(diagram):
                assert matching.edges not in seen
                seen.add(matching.edges)
                used = [v for edge in matching.edges for v in edge]
                assert len(used) == diagram.white_count == len(set(used))


def test_matchings_list_their_edges_sorted(small_diagrams):
    # `cauchon matchings` writes the edges as stored, so their order is its output
    diagrams = [d for ds in small_diagrams.values() for d in ds] + [CauchonDiagram.all_white(4, 4)]
    count = 0
    for diagram in diagrams:
        for matching in enumerate_matchings(diagram):
            assert matching.edges == tuple(sorted(matching.edges))
            count += 1
    assert count == 257 + 2016  # the small shapes' and the all-white 4x4's


# --- matching-sum pfaffian ------------------------------------------------------


@pytest.mark.parametrize("n", [0, 2, 4, 6])
def test_single_row_even_pfaffian_is_one(n):
    if n == 0:
        diagram = CauchonDiagram.all_black(1, 2)
    else:
        diagram = CauchonDiagram.all_white(1, n)
    assert pfaffian_by_matchings(diagram) == 1


def test_odd_white_count_pfaffian_is_zero():
    assert pfaffian_by_matchings(CauchonDiagram.all_white(1, 5)) == 0
    assert pfaffian_by_matchings(CauchonDiagram.all_white(3, 3)) == 0


def test_2x2_pfaffian_is_zero():
    # the two matchings have opposite signs
    assert pfaffian_by_matchings(CauchonDiagram.all_white(2, 2)) == 0


def test_pfaffian_by_matchings_label_invariance(small_diagrams):
    for diagrams in small_diagrams.values():
        for diagram in diagrams:
            d = diagram.white_count
            canonical = pfaffian_by_matchings(diagram)
            gapped = tuple(3 * k + 5 for k in range(d))
            assert relabeled_matching_sum(diagram, gapped) == canonical


def test_pfaffian_by_matchings_gapped_example():
    diagram = parse_grid(GRID_4x6)
    assert relabeled_matching_sum(diagram, GAPPED_LABELS_4x6) == pfaffian_by_matchings(diagram)


# --- vertical-edge sums ------------------------------------------------------------


def test_vertical_edge_sums_2x2():
    # the horizontal pair {(1,2),(3,4)} has sign +1; the vertical pair -1
    assert vertical_edge_sums(CauchonDiagram.all_white(2, 2)) == {
        frozenset(): 1,
        frozenset({1, 2}): -1,
    }


def test_vertical_edge_sums_total_to_pfaffian():
    diagram = parse_grid("..#.\n#...")
    sums = vertical_edge_sums(diagram)
    assert sum(sums.values()) == pfaffian_by_matchings(diagram)
    # vertical edges can only sit in the fully white columns 2 and 4
    assert all(columns <= {2, 4} for columns in sums)


def test_vertical_edge_sums_rejects_bad_diagram():
    with pytest.raises(ValueError):
        vertical_edge_sums(CauchonDiagram.all_white(3, 2))
    with pytest.raises(HasBlackColumnError) as err:
        vertical_edge_sums(parse_grid("#.\n#."))
    assert err.value.column == 1
