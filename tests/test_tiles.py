import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from landscape_atlas.errors import EmptyInput, HeightMismatch
from landscape_atlas.mario import tiles
from landscape_atlas.mario.tiles import TileGrid, concatenate, parse_ascii, render_ascii


def test_thirteen_tile_types_with_flags():
    assert tiles.N_TILE_TYPES == 13
    assert len(tiles.TILE_NAMES) == 13
    assert len(tiles.ASCII_LEGEND) == 13
    # standable: everything the player can stand on
    assert tiles.GROUND in tiles.STANDABLE
    assert tiles.PLATFORM in tiles.STANDABLE
    assert tiles.AIR not in tiles.STANDABLE
    assert tiles.COIN not in tiles.STANDABLE
    # pretty: the 9 decoration tiles
    assert len(tiles.PRETTY) == 9
    assert tiles.AIR not in tiles.PRETTY
    assert tiles.GROUND not in tiles.PRETTY
    # leniency classes
    assert tiles.LENIENT_P == {tiles.QUESTION_POWERUP}
    assert tiles.LENIENT_N == {tiles.BULLET_BILL, tiles.PIRANHA_TUBE, tiles.ENEMY}


def test_grid_shape_and_counts():
    g = TileGrid(np.array([[tiles.AIR, tiles.GROUND], [tiles.ENEMY, tiles.COIN]]))
    assert (g.height, g.width, g.n_tot) == (2, 2, 4)
    assert g.n_st == 1
    assert g.n_pt == 1  # the enemy


@pytest.mark.parametrize("name", ["STANDABLE", "PRETTY", "HAZARD"])
def test_each_byte_table_is_its_mask_on_the_codes_and_zero_beyond(name):
    table, mask = getattr(tiles, name + "_BYTES"), getattr(tiles, name + "_MASK")
    assert isinstance(table, bytes) and len(table) == 256
    assert list(table[:tiles.N_TILE_TYPES]) == [int(v) for v in mask]
    assert table[tiles.N_TILE_TYPES:] == bytes(256 - tiles.N_TILE_TYPES)


@st.composite
def _grids(draw):
    """Grids from 1 x 1 up to 16 x 60 of random codes, some with few kinds."""
    h = draw(st.integers(1, 16))
    w = draw(st.integers(1, 60))
    codes = draw(st.lists(st.integers(0, tiles.N_TILE_TYPES - 1),
                          min_size=1, max_size=2 * tiles.N_TILE_TYPES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return TileGrid(np.array(codes, dtype=np.int8)[rng.integers(0, len(codes), (h, w))])


@settings(max_examples=300, deadline=None)
@given(grid=_grids())
@example(grid=TileGrid(np.array([[tiles.GROUND]])))
@example(grid=TileGrid(np.array([[tiles.AIR, tiles.ENEMY, tiles.TUBE_BODY]])))
@example(grid=TileGrid(np.array([[tiles.PLATFORM], [tiles.AIR], [tiles.QUESTION_COIN]])))
def test_counts_equal_the_mask_sums(grid):
    assert grid.n_st == int(tiles.STANDABLE_MASK[grid.cells].sum())
    assert grid.n_pt == int(tiles.PRETTY_MASK[grid.cells].sum())
    std = grid.cells.tobytes().translate(tiles.STANDABLE_BYTES)
    assert tiles.open_columns(std, grid.width) == \
        (~tiles.STANDABLE_MASK[grid.cells].any(axis=0)).tobytes()


def test_grid_rejects_bad_input():
    with pytest.raises(EmptyInput):
        TileGrid(np.empty((0, 5), dtype=np.int8))
    with pytest.raises(ValueError):
        TileGrid(np.array([[13]]))
    with pytest.raises(ValueError):
        TileGrid(np.array([[-1]]))


@pytest.mark.parametrize("cells", [
    np.array([[256, 1]]),         # int8 would wrap 256 to 0 (air)
    np.array([[-256, 1]]),
    np.array([[0.9, 1.5]]),       # int8 would cut these to 0 and 1
    np.array([[1.0, np.nan]]),
    np.array([[1.0, np.inf]]),
    [[256]],                      # a list, which int8 rejects by overflow
    [[2 ** 70]],
    np.array([["1"]]),
    np.array([[1 + 0j]]),
])
def test_grid_rejects_codes_an_int8_cast_would_change(cells):
    with pytest.raises(ValueError, match="tile codes"):
        TileGrid(cells)


def test_grid_accepts_integral_codes_of_any_numeric_type():
    expected = np.array([[0, 12], [5, 1]], dtype=np.int8)
    for cells in (expected, expected.astype(np.int64),
                  expected.astype(np.uint16), expected.astype(float),
                  expected.tolist()):
        g = TileGrid(cells)
        assert g.cells.dtype == np.int8
        assert np.array_equal(g.cells, expected)
    assert np.array_equal(TileGrid(np.array([[True, False]])).cells, [[1, 0]])


def test_grid_copies_its_input():
    source = np.zeros((2, 2), dtype=np.int8)
    g = TileGrid(source)
    source[0, 0] = tiles.ENEMY
    assert g.cells[0, 0] == tiles.AIR


def test_grid_equality_and_hash_by_contents():
    a = TileGrid(np.zeros((3, 4), dtype=np.int8))
    b = TileGrid(np.zeros((3, 4), dtype=np.int8))
    c = TileGrid(np.zeros((4, 3), dtype=np.int8))
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_grid_is_immutable():
    g = TileGrid(np.zeros((2, 2), dtype=np.int8))
    with pytest.raises(ValueError):
        g.cells[0, 0] = 1


def test_concatenate_joins_left_to_right():
    left = parse_ascii("--\nXX")
    right = parse_ascii("EE\nXX")
    joined = concatenate([left, right])
    assert render_ascii(joined) == "--EE\nXXXX"


def test_concatenated_grids_are_read_only_int8_and_pass_the_checked_path():
    rng = np.random.default_rng(3)
    segments = [TileGrid(rng.integers(0, tiles.N_TILE_TYPES, (4, w)))
                for w in (1, 3, 5)]
    for parts in (segments, segments[:1]):
        joined = concatenate(parts)
        assert joined.cells.dtype == np.int8
        assert not joined.cells.flags.writeable
        assert joined == TileGrid(np.hstack([seg.cells for seg in parts]))
        assert not any(np.shares_memory(joined.cells, seg.cells)
                       for seg in parts)


def test_concatenate_errors():
    with pytest.raises(EmptyInput):
        concatenate([])
    with pytest.raises(HeightMismatch):
        concatenate([TileGrid(np.zeros((2, 2), dtype=np.int8)),
                     TileGrid(np.zeros((3, 2), dtype=np.int8))])


def test_ascii_round_trip():
    text = "-XS?QO\n<>[BP=\nEEEEEE"
    assert render_ascii(parse_ascii(text)) == text


def test_parse_ascii_rejects_unknown_and_ragged():
    with pytest.raises(ValueError):
        parse_ascii("-*\n--")
    with pytest.raises(ValueError):
        parse_ascii("--\n-")
    with pytest.raises(EmptyInput):
        parse_ascii("")
