import pytest

import cauchon.backend
from cauchon import (
    CauchonDiagram,
    SkewAdjacency,
    determinant,
    is_primitive,
    nullity,
    parse_grid,
    pfaffian,
    pfaffian_by_matchings,
    rank,
    skew_adjacency,
    strip_black_columns,
    transpose,
    white_edges,
)
from cauchon.diagram import enumerate_diagrams, white_coordinates
from conftest import GRID_4x6, random_diagrams, relabeled_matching_sum, sample_diagrams


# --- skew adjacency -------------------------------------------------------------


def test_skew_adjacency_2x2_all_white():
    matrix = skew_adjacency(CauchonDiagram.all_white(2, 2))
    assert matrix.entries == (
        (0, 1, 1, 0),
        (-1, 0, 0, 1),
        (-1, 0, 0, 1),
        (0, -1, -1, 0),
    )


def test_skew_adjacency_1x2():
    assert skew_adjacency(CauchonDiagram.all_white(1, 2)).entries == ((0, 1), (-1, 0))


def test_skew_adjacency_all_black():
    matrix = skew_adjacency(CauchonDiagram.all_black(2, 3))
    assert matrix.d == 0
    assert matrix.entries == ()


def test_skew_adjacency_upper_triangle_is_nonnegative(small_diagrams):
    for diagrams in small_diagrams.values():
        for diagram in diagrams:
            entries = skew_adjacency(diagram).entries
            d = len(entries)
            for i in range(d):
                for j in range(i + 1, d):
                    assert entries[i][j] in (0, 1)


#: every shape up to 3x3, plus 3x4 and its transpose
DIFFERENTIAL_SHAPES = [(m, n) for m in range(1, 4) for n in range(4)] + [(3, 4), (4, 3)]


def test_white_coordinates_match_is_black_scan():
    for m, n in DIFFERENTIAL_SHAPES:
        for diagram in enumerate_diagrams(m, n):
            scan = [
                (r, c)
                for r in range(1, m + 1)
                for c in range(1, n + 1)
                if not diagram.is_black(r, c)
            ]
            rows, cols = white_coordinates(diagram.row_masks, n)
            assert list(zip(rows, cols)) == scan, str(diagram)


def test_skew_adjacency_matches_white_edges():
    # white_edges is the matching oracle's own adjacency test
    for m, n in DIFFERENTIAL_SHAPES:
        for diagram in enumerate_diagrams(m, n):
            entries = skew_adjacency(diagram).entries
            d = len(entries)
            plus = tuple(
                (i + 1, j + 1) for i in range(d) for j in range(d) if entries[i][j] == 1
            )
            assert white_edges(diagram) == plus, str(diagram)


def test_skew_adjacency_ignores_label_values():
    # an all-black column shifts the columns of the white squares, not
    # their row-major order, so the matrix stays the same
    diagram = parse_grid(GRID_4x6)
    for position in range(1, diagram.cols + 2):
        assert skew_adjacency(insert_black_column(diagram, position)) == skew_adjacency(diagram)


def test_skew_adjacency_type_validates():
    with pytest.raises(ValueError):
        SkewAdjacency(2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        SkewAdjacency(2, ((0, 2), (-2, 0)))
    with pytest.raises(ValueError):
        SkewAdjacency(1, ((0, 0),))


# --- pfaffian / determinant / nullity ----------------------------------------------


def test_pfaffian_examples():
    assert pfaffian(CauchonDiagram.all_white(1, 4)) == 1
    assert pfaffian(CauchonDiagram.all_white(2, 2)) == 0
    assert pfaffian(CauchonDiagram.all_white(2, 1)) == 1
    assert pfaffian(CauchonDiagram.all_black(3, 3)) == 1


def test_determinant_examples():
    assert determinant(CauchonDiagram.all_white(1, 2)) == 1
    assert determinant(CauchonDiagram.all_white(2, 2)) == 0
    assert determinant(CauchonDiagram.all_white(1, 3)) == 0
    assert determinant(CauchonDiagram.all_black(2, 2)) == 1


def test_nullity_examples():
    assert nullity(CauchonDiagram.all_white(2, 2)) == 2
    assert nullity(CauchonDiagram.all_white(1, 2)) == 0
    assert nullity(CauchonDiagram.all_white(1, 1)) == 1
    assert nullity(CauchonDiagram.all_black(2, 2)) == 0


def test_is_primitive_examples():
    assert is_primitive(CauchonDiagram.all_black(2, 2))
    assert not is_primitive(CauchonDiagram.all_white(2, 2))
    for n in (0, 2, 4):
        diagram = CauchonDiagram.all_white(1, n) if n else CauchonDiagram.all_black(1, 1)
        assert is_primitive(diagram)


def test_elimination_matches_matching_sum(small_diagrams):
    for diagrams in small_diagrams.values():
        for diagram in diagrams:
            assert pfaffian(diagram) == pfaffian_by_matchings(diagram)


def test_determinant_is_pfaffian_squared(small_diagrams):
    for diagrams in small_diagrams.values():
        for diagram in diagrams:
            assert determinant(diagram) == pfaffian(diagram) ** 2


def test_rank_is_even_and_nullity_has_white_parity(small_diagrams):
    for diagrams in small_diagrams.values():
        for diagram in diagrams:
            nul = nullity(diagram)
            assert rank(diagram) % 2 == 0
            assert nul % 2 == diagram.white_count % 2
            assert (nul == 0) == is_primitive(diagram)
            assert (nul == 0) == (pfaffian(diagram) != 0)


#: shapes beyond ``sample_diagrams``' reach, for the seeded large sample
LARGE_SHAPES = [(6, 8), (7, 7), (8, 8), (9, 12)]


def test_nullity_matches_condensation():
    # the cycle nullity against the condensation's, which shares no code with it
    every = [d for m in range(1, 5) for n in range(5) for d in enumerate_diagrams(m, n)]
    large = random_diagrams(LARGE_SHAPES, 152, seed=20261018)
    for diagram in every + large:
        rows, cols = white_coordinates(diagram.row_masks, diagram.cols)
        assert nullity(diagram) == cauchon.backend.classify_cells(rows, cols)[1], str(diagram)
    for diagram in large:
        assert nullity(transpose(diagram)) == nullity(diagram), str(diagram)


def test_nullity_rank_and_primitivity_run_no_condensation(monkeypatch):
    def refuse(rows, cols):
        raise AssertionError("classify_cells was called")

    monkeypatch.setattr(cauchon.backend, "classify_cells", refuse)
    diagram = parse_grid(GRID_4x6)
    assert (nullity(diagram), rank(diagram), is_primitive(diagram)) == (0, 14, True)
    with pytest.raises(AssertionError):
        pfaffian(diagram)


def test_random_shapes_cross_checks():
    for diagram in sample_diagrams(4, 4, 60, seed=20240811):
        pf = pfaffian(diagram)
        assert pf == pfaffian_by_matchings(diagram)
        assert determinant(diagram) == pf * pf


# --- invariances ------------------------------------------------------------------


def insert_black_column(diagram, position):
    """New diagram with an entirely black column inserted before `position`."""
    masks = []
    low = (1 << (position - 1)) - 1
    for mask in diagram.row_masks:
        masks.append((mask & low) | (1 << (position - 1)) | ((mask & ~low) << 1))
    return CauchonDiagram(diagram.rows, diagram.cols + 1, tuple(masks))


def test_black_column_insertion_preserves_pfaffian(small_diagrams):
    for (m, n), diagrams in small_diagrams.items():
        for diagram in diagrams:
            pf = pfaffian(diagram)
            for position in range(1, n + 2):
                extended = insert_black_column(diagram, position)
                assert pfaffian(extended) == pf


def test_strip_black_columns_preserves_pfaffian(small_diagrams):
    # the census classifies only what is left after both strippings
    for diagrams in small_diagrams.values():
        for diagram in diagrams:
            stripped = [strip_black_columns(diagram)]
            if diagram.white_count:  # else no row would be left
                stripped.append(transpose(strip_black_columns(transpose(diagram))))
            for smaller in stripped:
                assert pfaffian(smaller) == pfaffian(diagram)
                assert nullity(smaller) == nullity(diagram)
                assert is_primitive(smaller) == is_primitive(diagram)


def test_primitivity_is_transpose_invariant(small_diagrams):
    # the Pfaffian's sign may change under transpose, its nullity may not
    for diagrams in small_diagrams.values():
        for diagram in diagrams:
            assert nullity(transpose(diagram)) == nullity(diagram)
            assert is_primitive(transpose(diagram)) == is_primitive(diagram)


def test_pfaffian_label_independence():
    diagram = parse_grid(GRID_4x6)
    gapped = tuple(5 * k + 2 for k in range(diagram.white_count))
    assert relabeled_matching_sum(diagram, gapped) == pfaffian(diagram)


def test_determinant_is_pfaffian_squared_at_large_sizes():
    # query-large's shapes; the Bareiss determinant shares no code with the
    # condensation kernel, and the all-white diagrams reach d = 64
    large = random_diagrams(LARGE_SHAPES[:3], 300, seed=20261019)
    large += [CauchonDiagram.all_white(m, n) for m, n in LARGE_SHAPES[:3]]
    for diagram in large:
        assert determinant(diagram) == pfaffian(diagram) ** 2, str(diagram)
