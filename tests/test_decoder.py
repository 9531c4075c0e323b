import numpy as np
import pytest

from landscape_atlas.ela.sampling import lhs_points
from landscape_atlas.errors import OutOfBounds
from landscape_atlas.mario.decoder import (
    _OFFSETS, CHUNK_ROWS, HEIGHT, WIDTH, OVERWORLD, UNDERGROUND,
    _channel_argmax, decode_levels, decoder_params,
)
from landscape_atlas.mario.tiles import (
    GROUND, N_TILE_TYPES, STANDABLE_MASK, TileGrid,
)


def _latent(dim, seed=0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, dim)


def test_output_shape_is_fixed():
    params = decoder_params(OVERWORLD, 1, 10)
    grid = decode_levels(params, _latent(10)[None])[0]
    assert (grid.height, grid.width) == (HEIGHT, WIDTH) == (14, 28)


def test_decoding_is_deterministic():
    z = _latent(20, seed=3)
    a = decode_levels(decoder_params(UNDERGROUND, 2, 20), z[None])[0]
    b = decode_levels(decoder_params(UNDERGROUND, 2, 20), z[None])[0]
    assert a == b


def test_params_depend_on_variant_seed_and_dim():
    base = decoder_params(OVERWORLD, 1, 10)
    assert not np.array_equal(base.w1, decoder_params(UNDERGROUND, 1, 10).w1)
    assert not np.array_equal(base.w1, decoder_params(OVERWORLD, 2, 10).w1)
    assert decoder_params(OVERWORLD, 1, 12).w1.shape == (64, 12)


def test_params_are_read_only_and_cached():
    params = decoder_params(OVERWORLD, 1, 10)
    assert params is decoder_params(OVERWORLD, 1, 10)
    with pytest.raises(ValueError):
        params.w1[0, 0] = 0.0


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        decoder_params("cloud", 1, 10)


def test_latent_validation():
    params = decoder_params(OVERWORLD, 1, 10)
    with pytest.raises(OutOfBounds):
        decode_levels(params, np.zeros((1, 9)))
    with pytest.raises(OutOfBounds):
        decode_levels(params, np.full((1, 10), 1.5))
    with pytest.raises(OutOfBounds):
        decode_levels(params, np.full((1, 10), -1.0001))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(OutOfBounds):
            decode_levels(params, np.array([[bad] + [0.0] * 9]))
    with pytest.raises(OutOfBounds):
        decode_levels(params, np.zeros(10))  # a point, not a design
    with pytest.raises(OutOfBounds):
        decode_levels(params, np.zeros((3, 9)))
    design = np.zeros((40, 10))
    design[35, 2] = np.nan  # one bad row rejects the whole design
    with pytest.raises(OutOfBounds):
        decode_levels(params, design)


def test_boundary_latents_are_accepted():
    params = decoder_params(OVERWORLD, 1, 10)
    decode_levels(params, np.ones((1, 10)))
    decode_levels(params, -np.ones((1, 10)))


def test_underground_has_solid_cap_rows():
    params = decoder_params(UNDERGROUND, 1, 10)
    for seed in range(5):
        grid = decode_levels(params, _latent(10, seed)[None])[0]
        assert (grid.cells[0, :] == GROUND).all()
        assert (grid.cells[13, :] == GROUND).all()


def test_overworld_floor_or_gap_in_every_column():
    # Each column either ends in a ground floor tile or is a gap whose
    # bottom two rows hold nothing standable.
    params = decoder_params(OVERWORLD, 1, 10)
    for seed in range(5):
        grid = decode_levels(params, _latent(10, seed)[None])[0]
        floored = grid.cells[13, :] == GROUND
        bottom_standable = STANDABLE_MASK[grid.cells[12:14, :]].any(axis=0)
        assert np.array_equal(floored, bottom_standable)


def test_different_latents_give_different_levels():
    params = decoder_params(OVERWORLD, 1, 10)
    a = decode_levels(params, _latent(10, seed=0)[None])[0]
    b = decode_levels(params, _latent(10, seed=1)[None])[0]
    assert a != b


def _reference_scores(params, Z):
    """Channel scores after offsets, one matrix-vector product per row."""
    rows = [np.tanh(params.w2 @ np.tanh(params.w1 @ z + params.b1) + params.b2)
            for z in Z]
    scores = np.array(rows).reshape(-1, N_TILE_TYPES, HEIGHT, WIDTH)
    return scores + _OFFSETS[params.variant]


@pytest.mark.parametrize("variant", (OVERWORLD, UNDERGROUND))
def test_decode_levels_match_decode_level_cell_by_cell(variant):
    params = decoder_params(variant, 3, 7)  # m1 or m2 at an odd d
    Z = np.random.default_rng(4).uniform(-1.0, 1.0, (2 * CHUNK_ROWS + 1, 7))
    grids = decode_levels(params, Z)
    assert grids == [decode_levels(params, z[None])[0] for z in Z]
    raw = _reference_scores(params, Z).argmax(axis=1)
    # the post-pass rewrites only the bottom row (and the top underground)
    assert np.array_equal(np.array([g.cells for g in grids])[:, 1:13],
                          raw[:, 1:13])
    assert decode_levels(params, np.empty((0, 7))) == []


@pytest.mark.parametrize("variant", (OVERWORLD, UNDERGROUND))
def test_decoded_grids_are_read_only_int8_and_pass_the_checked_path(variant):
    params = decoder_params(variant, 2, 6)
    Z = np.random.default_rng(5).uniform(-1.0, 1.0, (CHUNK_ROWS + 3, 6))
    for grid in decode_levels(params, Z):
        assert grid.cells.dtype == np.int8
        assert not grid.cells.flags.writeable
        checked = TileGrid(grid.cells)
        assert checked == grid and hash(checked) == hash(grid)
        with pytest.raises(ValueError):
            grid.cells[0, 0] = GROUND


@pytest.mark.parametrize("variant", (OVERWORLD, UNDERGROUND))
def test_argmax_margins_dwarf_batch_rounding(variant):
    # A chunked matrix product rounds scores differently from a per-row one;
    # a tile could flip only where its two best channels are this close.
    for seed in range(1, 8):
        for dim in (10, 5):  # the survey's latent and concatenation-half sizes
            params = decoder_params(variant, seed, dim)
            Z = lhs_points(500, dim, -np.ones(dim), np.ones(dim), seed)
            top2 = np.sort(_reference_scores(params, Z), axis=1)[:, -2:]
            assert (top2[:, 1] - top2[:, 0]).min() >= 1e-12, (seed, dim)


def test_channel_argmax_sends_exact_ties_to_the_lowest_channel():
    rng = np.random.default_rng(6)
    # Three score levels over 13 channels: most cells tie at the top across
    # several channels.
    scores = rng.integers(-1, 2, size=(6, N_TILE_TYPES, 3, 5)).astype(float)
    scores[0, :, 0, 0] = 0.25                 # all thirteen tie
    scores[0, :, 0, 1] = -1.0
    scores[0, 11:, 0, 1] = 2.0                # the last two tie
    scores[0, 3, 0, 2] = np.nextafter(scores[0, :, 0, 2].max(), np.inf)
    top = _channel_argmax(scores)
    assert np.array_equal(top, scores.argmax(axis=1))
    assert (top[0, 0, 0], top[0, 0, 1], top[0, 0, 2]) == (0, 11, 3)
    ties = (scores == scores.max(axis=1, keepdims=True)).sum(axis=1)
    assert (ties >= 3).any()
