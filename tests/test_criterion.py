import pytest

from cauchon import (
    CauchonDiagram,
    HasBlackColumnError,
    enumerate_diagrams,
    fully_white_columns,
    is_primitive,
    parse_grid,
    primitive_1xn,
    primitive_2xn_fast,
    strip_black_columns,
)
from cauchon.criterion import _column_label_sums
from conftest import GRID_2x6, random_diagrams


def row_white_counts(diagram):
    return tuple(diagram.cols - mask.bit_count() for mask in diagram.row_masks)


def whites_up_to(mask, col):
    """w(c): the white squares of a row in columns 1..col."""
    return col - (mask & (1 << col) - 1).bit_count()


def test_two_row_stats_example_grid():
    diagram = parse_grid(GRID_2x6)
    assert diagram.row_masks[1].bit_length() == 1
    assert fully_white_columns(diagram) == [2, 4, 6]
    assert row_white_counts(diagram) == (4, 5)
    # labels 1..4 in row 1 and 5..9 in row 2; column 3 is white in row 2 alone
    assert _column_label_sums(diagram) == {2: 2 + 5, 4: 3 + 7, 6: 4 + 9}


def test_two_row_stats_all_white():
    diagram = CauchonDiagram.all_white(2, 1)
    assert diagram.row_masks[1].bit_length() == 0
    assert fully_white_columns(diagram) == [1]
    assert _column_label_sums(diagram) == {1: 3}
    diagram = CauchonDiagram.all_white(2, 2)
    assert diagram.row_masks[1].bit_length() == 0
    assert fully_white_columns(diagram) == [1, 2]
    assert _column_label_sums(diagram) == {1: 1 + 3, 2: 2 + 4}


def test_two_row_stats_rejects_black_column():
    with pytest.raises(HasBlackColumnError) as err:
        fully_white_columns(parse_grid("#.\n#."))
    assert err.value.column == 1


def test_two_row_stats_rejects_wrong_rows():
    with pytest.raises(ValueError):
        fully_white_columns(CauchonDiagram.all_white(3, 2))


@pytest.mark.parametrize("n", range(1, 9))
def test_vert_set_is_exactly_fully_white_columns(n):
    for diagram in enumerate_diagrams(2, n):
        top, bottom = diagram.row_masks
        m = whites_up_to(top, n)
        # square (1, c) has label w_1(c) and square (2, c) label m + w_2(c)
        expected = {
            col: whites_up_to(top, col) + m + whites_up_to(bottom, col)
            for col in range(1, n + 1)
            if not diagram.is_black(1, col) and not diagram.is_black(2, col)
        }
        sums = _column_label_sums(diagram)
        assert sums == expected and list(sums) == sorted(sums)
        if diagram.black_column_mask():
            continue
        columns = fully_white_columns(diagram)
        assert columns == list(expected)
        assert all(col > diagram.row_masks[1].bit_length() for col in columns)
        assert sum(row_white_counts(diagram)) == diagram.white_count


def test_primitive_1xn_examples():
    assert primitive_1xn(CauchonDiagram.all_white(1, 4))
    assert not primitive_1xn(CauchonDiagram.all_white(1, 3))
    assert primitive_1xn(CauchonDiagram(1, 0, (0,)))
    with pytest.raises(ValueError):
        primitive_1xn(CauchonDiagram.all_white(2, 2))


@pytest.mark.parametrize("n", range(1, 9))
def test_primitive_1xn_matches_pfaffian(n):
    for diagram in enumerate_diagrams(1, n):
        assert primitive_1xn(diagram) == is_primitive(diagram)


def test_primitive_2xn_fast_examples():
    assert primitive_2xn_fast(CauchonDiagram.all_white(2, 1))
    assert not primitive_2xn_fast(CauchonDiagram.all_white(2, 2))
    with pytest.raises(ValueError):
        primitive_2xn_fast(CauchonDiagram.all_white(1, 2))


def test_primitive_2xn_fast_odd_parity_is_never_primitive():
    # unequal white-count parities force a zero Pfaffian
    for n in range(1, 6):
        for diagram in enumerate_diagrams(2, n):
            if diagram.white_count % 2 == 1:
                assert not primitive_2xn_fast(diagram)


@pytest.mark.parametrize("n", range(1, 7))
def test_primitive_2xn_fast_matches_pfaffian(n):
    for diagram in enumerate_diagrams(2, n):
        assert primitive_2xn_fast(diagram) == is_primitive(diagram)


def test_primitive_2xn_fast_matches_nullity_at_large_widths():
    # nearly all of the draws have an entirely black column, their stripped copies none
    drawn = random_diagrams([(2, n) for n in range(10, 41)], 310, seed=5)
    diagrams = drawn + [strip_black_columns(diagram) for diagram in drawn]
    values = [primitive_2xn_fast(diagram) for diagram in diagrams]
    assert values == [is_primitive(diagram) for diagram in diagrams]
    assert all(values[:310].count(v) >= 100 for v in (True, False))
    assert sum(diagram.cols >= 10 for diagram in diagrams[310:]) >= 250


def test_primitive_2xn_fast_black_column_insertion_invariance():
    from test_pfaffian import insert_black_column

    for n in range(1, 5):
        for diagram in enumerate_diagrams(2, n):
            value = primitive_2xn_fast(diagram)
            for position in range(1, n + 2):
                assert primitive_2xn_fast(insert_black_column(diagram, position)) == value


def test_primitive_2xn_fast_empty_grid():
    assert primitive_2xn_fast(CauchonDiagram(2, 0, (0, 0)))
