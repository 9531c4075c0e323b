import numpy as np
import pytest
from hypothesis import example, given, settings

from landscape_atlas.mario import tiles
from landscape_atlas.mario.metrics import (
    decoration_frequency, detect_gaps, enemy_distribution, leniency,
    negative_space, position_distribution,
)
from landscape_atlas.mario.tiles import TileGrid, parse_ascii
from test_tiles import _grids


def _grid(fill, height, width, **cells):
    m = np.full((height, width), fill, dtype=np.int8)
    for code, positions in cells.items():
        for r, c in positions:
            m[r, c] = getattr(tiles, code.upper())
    return TileGrid(m)


# --- enemy_distribution -----------------------------------------------------

def test_enemies_at_both_extremes_of_width_28_score_zero():
    # population sd of x in {0, 27} is 13.5, the maximum for width 28
    g = _grid(tiles.AIR, 3, 28, enemy=[(1, 0), (1, 27)])
    assert enemy_distribution(g) == pytest.approx(0.0, abs=1e-12)


def test_single_enemy_scores_one():
    g = _grid(tiles.AIR, 3, 28, enemy=[(2, 13)])
    assert enemy_distribution(g) == 1.0


def test_no_enemies_scores_one():
    g = _grid(tiles.AIR, 3, 28)
    assert enemy_distribution(g) == 1.0


def test_enemy_distribution_ignores_row_placement():
    a = _grid(tiles.AIR, 5, 20, enemy=[(0, 3), (0, 10)])
    b = _grid(tiles.AIR, 5, 20, enemy=[(4, 3), (2, 10)])
    assert enemy_distribution(a) == enemy_distribution(b)


def test_enemy_distribution_is_shift_invariant():
    # sd is translation invariant, so sliding the pattern keeps the score
    a = _grid(tiles.AIR, 5, 20, enemy=[(1, 2), (1, 6)])
    b = _grid(tiles.AIR, 5, 20, enemy=[(1, 12), (1, 16)])
    assert enemy_distribution(a) == pytest.approx(enemy_distribution(b), abs=1e-12)


# --- position_distribution ---------------------------------------------------

def test_standable_split_between_top_and_bottom_rows_scores_zero():
    # height 14: sd of y in {0, 13} with equal counts is 6.5, the maximum
    m = np.full((14, 4), tiles.AIR, dtype=np.int8)
    m[0, :2] = tiles.GROUND
    m[13, :2] = tiles.GROUND
    assert position_distribution(TileGrid(m)) == pytest.approx(0.0, abs=1e-12)


def test_all_standable_in_one_row_scores_one():
    m = np.full((14, 6), tiles.AIR, dtype=np.int8)
    m[13, :] = tiles.GROUND
    assert position_distribution(TileGrid(m)) == 1.0


def test_no_standable_tiles_scores_one():
    g = _grid(tiles.AIR, 14, 6)
    assert position_distribution(g) == 1.0


# --- decoration_frequency ----------------------------------------------------

def test_no_pretty_tiles_scores_one():
    assert decoration_frequency(_grid(tiles.GROUND, 4, 7)) == 1.0


def test_all_pretty_scores_zero():
    assert decoration_frequency(_grid(tiles.DESTRUCTIBLE, 4, 7)) == 0.0


def test_plain_coins_are_not_decoration():
    assert decoration_frequency(_grid(tiles.COIN, 4, 7)) == 1.0


def test_98_pretty_of_392_tiles_scores_three_quarters():
    m = np.full((14, 28), tiles.AIR, dtype=np.int8)
    m.ravel()[:98] = tiles.DESTRUCTIBLE
    assert decoration_frequency(TileGrid(m)) == pytest.approx(0.75, abs=1e-15)


# --- negative_space ----------------------------------------------------------

def test_all_ground_scores_zero():
    assert negative_space(_grid(tiles.GROUND, 3, 5)) == 0.0


def test_all_air_scores_one():
    assert negative_space(_grid(tiles.AIR, 3, 5)) == 1.0


# --- detect_gaps -------------------------------------------------------------

def test_solid_floor_has_no_gaps():
    report = detect_gaps(parse_ascii("------\nXXXXXX"))
    assert (report.n_gaps, report.mean_gap_length) == (0, 0.0)


def test_gap_runs_at_columns_5_6_and_10():
    m = np.full((3, 12), tiles.AIR, dtype=np.int8)
    m[2, :] = tiles.GROUND
    m[2, 5] = m[2, 6] = m[2, 10] = tiles.AIR
    report = detect_gaps(TileGrid(m))
    assert report.n_gaps == 2
    assert report.mean_gap_length == pytest.approx(1.5)


def test_floor_only_in_first_column_is_one_wide_gap():
    m = np.full((3, 9), tiles.AIR, dtype=np.int8)
    m[2, 0] = tiles.GROUND
    report = detect_gaps(TileGrid(m))
    assert report.n_gaps == 1
    assert report.mean_gap_length == pytest.approx(8.0)


def test_run_touching_the_spawn_column_is_not_a_gap():
    m = np.full((3, 9), tiles.AIR, dtype=np.int8)
    m[2, 3:] = tiles.GROUND
    report = detect_gaps(TileGrid(m))
    assert report.n_gaps == 0


# --- leniency -----------------------------------------------------------------

def test_no_powerups_no_hazards_no_gaps_is_midpoint():
    out = leniency(_grid(tiles.GROUND, 4, 7))
    assert (out.sum_p, out.sum_n, out.v) == (0, 0, 0.0)
    assert out.value == 0.5


def test_all_powerups_saturate_to_one():
    assert leniency(_grid(tiles.QUESTION_POWERUP, 4, 7)).value == 1.0


def test_all_enemies_saturate_to_zero():
    assert leniency(_grid(tiles.ENEMY, 4, 7)).value == 0.0


def test_gaps_lower_leniency_by_count_and_length():
    # one 2-wide gap: v = 0 - 0 - 1/2 - 2 = -2.5 over 14 tiles
    m = np.full((2, 7), tiles.AIR, dtype=np.int8)
    m[1, :] = tiles.GROUND
    m[1, 2] = m[1, 3] = tiles.AIR
    out = leniency(TileGrid(m))
    assert out.v == pytest.approx(-2.5)
    assert out.value == pytest.approx((-2.5 / 14 + 1) / 2)


# --- shared range property -----------------------------------------------------

def test_all_five_measures_stay_in_unit_interval_on_random_grids():
    rng = np.random.default_rng(7)
    for _ in range(50):
        h = int(rng.integers(1, 15))
        w = int(rng.integers(1, 29))
        g = TileGrid(rng.integers(0, 13, size=(h, w)).astype(np.int8))
        for measure in (enemy_distribution, position_distribution,
                        decoration_frequency, negative_space):
            assert 0.0 <= measure(g) <= 1.0
        assert 0.0 <= leniency(g).value <= 1.0


# --- the byte counts against the mask formulas they replaced ----------------
#
# _reference_detect_gaps and _reference_leniency are detect_gaps and
# leniency as they were when they counted with numpy masks and bincount.

def _reference_detect_gaps(grid):
    open_col = ~tiles.STANDABLE_MASK[grid.cells].any(axis=0)
    lengths = []
    run = 0
    for col, is_open in enumerate(open_col):
        if is_open:
            run += 1
        else:
            if run and col - run > 0:
                lengths.append(run)
            run = 0
    if run and grid.width - run > 0:
        lengths.append(run)
    if not lengths:
        return (0, 0.0)
    return (len(lengths), float(np.mean(lengths)))


def _reference_leniency(grid):
    counts = np.bincount(grid.cells.ravel(), minlength=13)
    sum_p = int(counts[list(tiles.LENIENT_P)].sum())
    sum_n = int(counts[list(tiles.LENIENT_N)].sum())
    n_gaps, mean_gap = _reference_detect_gaps(grid)
    v = sum_p - sum_n - n_gaps / 2.0 - mean_gap
    ratio = min(1.0, max(-1.0, v / grid.n_tot))
    return (sum_p, sum_n, v, (ratio + 1.0) / 2.0)


@settings(max_examples=300, deadline=None)
@given(grid=_grids())
@example(grid=TileGrid(np.array([[tiles.AIR]])))
@example(grid=TileGrid(np.array([[tiles.GROUND, tiles.AIR, tiles.AIR, tiles.GROUND,
                                   tiles.AIR, tiles.QUESTION_POWERUP]])))
@example(grid=TileGrid(np.array([[tiles.ENEMY], [tiles.AIR], [tiles.GROUND]])))
@example(grid=parse_ascii("-------\nX-X--X-"))
def test_gaps_and_leniency_equal_the_mask_formulas(grid):
    gaps = detect_gaps(grid)
    assert (gaps.n_gaps, gaps.mean_gap_length) == _reference_detect_gaps(grid)
    assert type(gaps.mean_gap_length) is float
    out = leniency(grid)
    assert (out.sum_p, out.sum_n, out.v, out.value) == _reference_leniency(grid)
    assert type(out.sum_p) is type(out.sum_n) is int
