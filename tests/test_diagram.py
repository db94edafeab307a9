import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchon import (
    BadCharacterError,
    CauchonDiagram,
    GridError,
    MalformedMatchingError,
    Matching,
    NonRectangularError,
    NotCauchonError,
    backend,
    census,
    count_diagrams,
    count_diagrams_no_black_column,
    diagram,
    enumerate_diagrams,
    enumerate_matchings,
    format_grid,
    parse_grid,
    strip_black_columns,
    transpose,
    validate,
    white_edges,
)
from cauchon.diagram import _iter_row_masks, white_coordinates
from conftest import GRID_4x6, admissible_row, decode_states


def naive_validate(black, m, n):
    # straight off the definition, no bit tricks
    black = set(black)
    for (i, a) in black:
        left_ok = all((i, b) in black for b in range(1, a))
        above_ok = all((j, a) in black for j in range(1, i))
        if not (left_ok or above_ok):
            return False
    return True


def masks_to_cells(masks, n):
    return [
        (i, col)
        for i, mask in enumerate(masks, start=1)
        for col in range(1, n + 1)
        if mask >> (col - 1) & 1
    ]


# --- validate ---------------------------------------------------------------


def test_validate_example_grid():
    diagram = parse_grid(GRID_4x6)
    assert validate(diagram.black_cells(), 4, 6)


def test_validate_all_white():
    assert validate([], 3, 5)


def test_validate_isolated_black_fails():
    # (2,2) black with (2,1) and (1,2) white satisfies neither clause
    assert not validate([(2, 2)], 2, 2)


def test_validate_rejects_out_of_grid_cells():
    with pytest.raises(ValueError):
        validate([(3, 1)], 2, 2)
    with pytest.raises(ValueError):
        validate([(1, 0)], 2, 2)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 4) for n in range(1, 4)])
def test_validate_matches_naive_definition(m, n):
    for bits in range(1 << (m * n)):
        cells = [
            (i, a)
            for i in range(1, m + 1)
            for a in range(1, n + 1)
            if bits >> ((i - 1) * n + (a - 1)) & 1
        ]
        assert validate(cells, m, n) == naive_validate(cells, m, n)


# --- parse / format ---------------------------------------------------------


def test_parse_all_white():
    diagram = parse_grid("..\n..")
    assert (diagram.rows, diagram.cols) == (2, 2)
    assert diagram.white_count == 4


def test_parse_all_black():
    diagram = parse_grid("##\n##")
    assert diagram.white_count == 0


def test_parse_black_in_first_row_is_valid():
    # nothing above row 1, so any black square there is admissible
    diagram = parse_grid(".#\n..")
    assert diagram.is_black(1, 2)


def test_parse_not_cauchon_names_cell():
    with pytest.raises(NotCauchonError) as err:
        parse_grid("..\n.#")
    assert (err.value.row, err.value.col) == (2, 2)


def test_parse_non_rectangular():
    with pytest.raises(NonRectangularError):
        parse_grid("..\n...")


def test_parse_bad_character():
    with pytest.raises(BadCharacterError) as err:
        parse_grid("..\n.x")
    assert (err.value.row, err.value.col) == (2, 2)


def test_parse_empty_text():
    with pytest.raises(GridError):
        parse_grid("")


@pytest.mark.parametrize("m", [1, 2, 3])
def test_zero_column_grid_text_holds_no_squares(m):
    # m x 0 grid text is m - 1 newlines, which cannot round-trip: 3x0 would
    # read back as 2x0, so any text without squares is refused
    text = format_grid(CauchonDiagram.all_white(m, 0))
    assert text == "\n" * (m - 1)
    for candidate in (text, text + "\n"):
        with pytest.raises(GridError, match="^grid text holds no squares$"):
            parse_grid(candidate)


def test_parse_accepts_trailing_newline():
    assert parse_grid("..\n..\n") == parse_grid("..\n..")


def test_format_round_trip_examples():
    for text in (GRID_4x6, "..\n..", "##\n##", ".#\n.."):
        assert format_grid(parse_grid(text)) == text


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parse_format_round_trip(data):
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 4))
    pool = list(enumerate_diagrams(m, n))
    diagram = data.draw(st.sampled_from(pool))
    assert parse_grid(format_grid(diagram)) == diagram


def test_direct_construction_rejects_bad_mask():
    with pytest.raises(NotCauchonError):
        CauchonDiagram(2, 2, (0, 2))
    with pytest.raises(ValueError):
        CauchonDiagram(2, 2, (0, 8))
    with pytest.raises(ValueError):
        CauchonDiagram(0, 2, ())


# --- enumeration ------------------------------------------------------------


@pytest.mark.parametrize("n", range(0, 7))
def test_enumerate_single_row_counts(n):
    assert sum(1 for _ in enumerate_diagrams(1, n)) == 2**n


@pytest.mark.parametrize("n", range(0, 7))
def test_enumerate_two_row_counts(n):
    expected = 2 * 3**n - 2**n if n else 1
    assert sum(1 for _ in enumerate_diagrams(2, n)) == expected


def test_enumerate_2x1_has_four_diagrams():
    assert len(list(enumerate_diagrams(2, 1))) == 4


def test_enumerate_empty_cols():
    diagrams = list(enumerate_diagrams(3, 0))
    assert diagrams == [CauchonDiagram(3, 0, (0, 0, 0))]


def row_major_string(diagram):
    # white -> '0', black -> '1', so string order is mask order
    return format_grid(diagram).replace("\n", "").replace(".", "0").replace("#", "1")


# 2 x 7 reaches every fully-black-column state of width 7 as a second row
@pytest.mark.parametrize("m,n", [(1, 5), (2, 3), (3, 3), (4, 2), (2, 7), (1, 10)])
def test_enumerate_is_lexicographic_and_duplicate_free(m, n):
    seen = [row_major_string(d) for d in enumerate_diagrams(m, n)]
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen))
    assert seen[0] == "0" * (m * n)


def indexed_row_masks(m, n):
    """Oracle: every m x n diagram's row masks, each row built at each index of the stated layout.

    ``conftest.admissible_row`` builds the row at an index from the layout
    that ``census._row_masks`` states, with no code of the package.
    """
    if m == 0:
        yield ()
        return
    for rows in indexed_row_masks(m - 1, n):
        above = (1 << n) - 1
        for row in rows:
            above &= row
        count = 1 + sum(1 << (above >> p + 1).bit_count() for p in range(n))
        for index in range(count):
            yield (*rows, admissible_row(n, above, index))


def test_enumeration_order_is_the_index_order():
    # the enumeration walks each row's blocks by index; it yields every
    # shape with m * n <= 16 in the order of the row indices
    shapes = [(m, n) for m in range(1, 17) for n in range(0, 17) if m * n <= 16]
    for m, n in shapes:
        assert list(_iter_row_masks(m, n)) == list(indexed_row_masks(m, n)), (m, n)
    assert len(shapes) == 66


def test_first_diagram_of_a_wide_row_lists_no_rows(monkeypatch):
    # the first of 2^40 one-row diagrams comes without listing the first
    # rows; the cached listing is refused outright, so that a return to it
    # fails here instead of filling the memory
    def refuse(n, above):
        raise AssertionError(f"the enumeration listed the rows of width {n}")

    monkeypatch.setattr(diagram, "_row_candidates", refuse)
    tracemalloc.start()
    try:
        first = next(enumerate_diagrams(1, 40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == CauchonDiagram.all_white(1, 40)
    assert peak < 256 * 1024, peak


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 4) for n in range(1, 4)])
def test_enumerate_matches_filtering_all_masks(m, n):
    expected = set()
    for bits in range(1 << (m * n)):
        cells = [
            (i, a)
            for i in range(1, m + 1)
            for a in range(1, n + 1)
            if bits >> ((i - 1) * n + (a - 1)) & 1
        ]
        if validate(cells, m, n):
            expected.add(frozenset(cells))
    got = {frozenset(d.black_cells()) for d in enumerate_diagrams(m, n)}
    assert got == expected


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(0, 5)])
def test_core_search_matches_filtered_stream(m, n):
    # replaying every diagram of the enumeration stream through the census's
    # row moves must give exactly the state counts of its transfer search,
    # and on the cores (no black row, no black column) the state's even
    # cycles must be the nullity the kernel finds
    full = (1 << n) - 1
    replayed = {}
    for masks in _iter_row_masks(m, n):
        black_columns = full
        wires = tuple(2 * w + 1 for w in range(n))
        for mask in masks:
            black_columns &= mask
            wires = tuple(wires[src] ^ flip for src, flip in census._wire_moves(n, mask))
        key = (black_columns, wires)
        replayed[key] = replayed.get(key, 0) + 1
        if full not in masks and not black_columns:
            nullity = backend.classify_cells(*white_coordinates(masks, n))[1]
            assert census._even_cycles(wires) == nullity, masks
    assert decode_states(n, [*census._sweep(n, m)][-1]) == replayed


# --- counting ---------------------------------------------------------------


def test_count_examples():
    assert count_diagrams(2, 2) == 14
    assert count_diagrams(1, 3) == 8
    for m in range(1, 5):
        assert count_diagrams(m, 0) == 1


#: the shapes whose counts the binomial relation of acceptance criterion 3
#: compares (m <= 3, n <= 8): both sides are transfers, so the enumeration
#: checks them here; four rows (n <= 5) count a last row after three
ENUMERATED_SHAPES = [(m, n) for m in range(1, 4) for n in range(0, 9)] + [(4, n) for n in range(0, 6)]


@pytest.mark.parametrize("m,n", ENUMERATED_SHAPES)
def test_count_agrees_with_enumeration(m, n):
    assert count_diagrams(m, n) == sum(1 for _ in enumerate_diagrams(m, n))


@pytest.mark.parametrize("n", range(0, 11))
def test_two_row_count_formula(n):
    expected = 2 * 3**n - 2**n if n else 1
    assert count_diagrams(2, n) == expected


@pytest.mark.parametrize("n", range(0, 11))
def test_two_row_no_black_column_count(n):
    expected = 2 ** (n + 1) - 1 if n else 1
    assert count_diagrams_no_black_column(2, n) == expected


def test_no_black_column_count_does_not_step_the_last_row(monkeypatch):
    # C_{2,15} has 28.7M diagrams and C_{1,30} 2^30: a count that steps its
    # last row hands out more rows than the cap allows
    handed = 0
    candidates = diagram._row_candidates

    def capped(n, above):
        nonlocal handed
        # sized before it is built, so a 2^30-row table is refused unmade:
        # a leading run of each length p < n, any subset of the columns
        # black so far right of column p + 1 black, and the full row
        size = 1 + sum(1 << (above >> p + 1).bit_count() for p in range(n))
        handed += size
        if handed > 10**6:
            raise AssertionError(f"more than 10**6 admissible rows handed out, at width {n}")
        rows = candidates(n, above)
        assert len(rows) == size
        return rows

    monkeypatch.setattr(diagram, "_row_candidates", capped)
    assert count_diagrams_no_black_column(2, 15) == 2**16 - 1
    assert count_diagrams_no_black_column(1, 30) == 1


@pytest.mark.parametrize("n", range(0, 7))
def test_single_row_no_black_column_count(n):
    # a black square in a 1 x n grid is itself a black column
    assert count_diagrams_no_black_column(1, n) == 1


@pytest.mark.parametrize("m,n", ENUMERATED_SHAPES)
def test_no_black_column_count_agrees_with_enumeration(m, n):
    expected = sum(
        1 for d in enumerate_diagrams(m, n) if d.black_column_mask() == 0
    )
    assert count_diagrams_no_black_column(m, n) == expected


@pytest.mark.parametrize("m", [1, 2, 3])
def test_count_satisfies_binomial_relation(m):
    # removing the i all-black columns of a diagram leaves one with none
    from math import comb

    for n in range(0, 9):
        total = count_diagrams(m, n)
        via_relation = sum(
            comb(n, i) * count_diagrams_no_black_column(m, n - i)
            for i in range(n + 1)
        )
        assert total == via_relation


# --- transforms -------------------------------------------------------------


def test_strip_black_columns_examples():
    assert strip_black_columns(parse_grid("#.\n#.")) == CauchonDiagram(2, 1, (0, 0))
    allwhite = CauchonDiagram.all_white(2, 3)
    assert strip_black_columns(allwhite) is allwhite
    example = parse_grid(GRID_4x6)
    assert strip_black_columns(example) == example


def test_strip_black_columns_all_black():
    stripped = strip_black_columns(CauchonDiagram.all_black(3, 2))
    assert (stripped.rows, stripped.cols) == (3, 0)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 3)])
def test_strip_black_columns_preserves_whites_and_membership(m, n):
    for diagram in enumerate_diagrams(m, n):
        stripped = strip_black_columns(diagram)
        assert stripped.white_count == diagram.white_count
        assert stripped.black_column_mask() == 0


def test_transpose_examples():
    assert transpose(CauchonDiagram.all_white(2, 3)) == CauchonDiagram.all_white(3, 2)
    flipped = transpose(parse_grid(GRID_4x6))
    assert (flipped.rows, flipped.cols) == (6, 4)


def test_transpose_of_a_diagram_without_columns_is_refused():
    with pytest.raises(ValueError, match="3x0 diagram has no columns, so it has no transpose"):
        transpose(CauchonDiagram.all_white(3, 0))


def test_transpose_is_involutive_bijection(small_diagrams):
    for (m, n), diagrams in small_diagrams.items():
        images = [transpose(d) for d in diagrams]
        assert all(transpose(t) == d for d, t in zip(diagrams, images))
        assert set(images) == set(small_diagrams[(n, m)])


# --- labels: the k-th white square in row-major order has label k ------------


def test_canonical_labels_2x2():
    diagram = CauchonDiagram.all_white(2, 2)
    cells = diagram.white_cells()
    assert cells == ((1, 1), (1, 2), (2, 1), (2, 2))
    label = {cell: index + 1 for index, cell in enumerate(cells)}
    assert label[(2, 1)] == 3
    assert cells[4 - 1] == (2, 2)
    # the matching oracle numbers the squares the same way
    assert set(white_edges(diagram)) == {
        (label[a], label[b])
        for a in cells
        for b in cells
        if label[a] < label[b] and (a[0] == b[0] or a[1] == b[1])
    }


def test_canonical_labels_single_row():
    cells = CauchonDiagram.all_white(1, 4).white_cells()
    assert [index + 1 for index, _ in enumerate(cells)] == [1, 2, 3, 4]
    assert cells == ((1, 1), (1, 2), (1, 3), (1, 4))


def test_canonical_labels_all_black():
    diagram = CauchonDiagram.all_black(2, 2)
    assert diagram.white_cells() == ()
    assert white_edges(diagram) == ()


def test_with_labels_validates():
    # mapped through a relabeling, every matching stays well formed only if
    # the relabeling is strictly increasing
    matchings = [m.edges for m in enumerate_matchings(CauchonDiagram.all_white(1, 4))]

    def relabel(edges, labels):
        return Matching(tuple((labels[i - 1], labels[j - 1]) for i, j in edges))

    for edges in matchings:
        assert relabel(edges, (2, 5, 9, 11)).sign == Matching(edges).sign
    for labels in [(3, 2, 5, 7), (1, 3, 5, 4), (1, 1, 2, 3), (1, 2, 2, 3)]:
        with pytest.raises(MalformedMatchingError):
            for edges in matchings:
                relabel(edges, labels)
