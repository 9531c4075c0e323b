import dataclasses

import numpy as np
import pytest

from landscape_atlas._seeds import NS_DECODER, rng_for
from landscape_atlas.ela.sampling import lhs_points
from landscape_atlas.errors import OutOfBounds
from landscape_atlas.mario import decoder
from landscape_atlas.mario.decoder import (
    _OFFSETS, _VARIANT_CODES, CHUNK_ROWS, HEIGHT, HIDDEN, SCREEN_TOL, WIDTH,
    OVERWORLD, UNDERGROUND, _screen, _screen_scores, decode_levels,
    decoder_params,
)
from landscape_atlas.mario.tiles import (
    GROUND, N_TILE_TYPES, QUESTION_COIN, STANDABLE_MASK, TUBE_TOP_RIGHT,
    TileGrid,
)

OUTPUTS = N_TILE_TYPES * HEIGHT * WIDTH


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


def _float64_weights(variant, instance_seed, dim):
    """(w1, b1, w2, b2) drawn whole in float64 from the decoder's stream."""
    rng = rng_for(NS_DECODER, _VARIANT_CODES[variant], instance_seed, dim)
    s1 = 1.0 / np.sqrt(dim)
    s2 = 1.0 / np.sqrt(HIDDEN)
    w1 = rng.uniform(-s1, s1, size=(HIDDEN, dim))
    b1 = rng.uniform(-s1, s1, size=HIDDEN)
    w2 = rng.uniform(-s2, s2, size=(OUTPUTS, HIDDEN))
    b2 = rng.uniform(-s2, s2, size=OUTPUTS)
    return w1, b1, w2, b2


def _reference_scores(params, Z):
    """Float64 channel scores after offsets, one matrix-vector product per
    row."""
    w1, b1, w2, b2 = _float64_weights(params.variant, params.instance_seed,
                                      params.dim)
    rows = [np.tanh(w2 @ np.tanh(w1 @ z + b1) + b2) for z in Z]
    scores = np.array(rows).reshape(-1, N_TILE_TYPES, HEIGHT, WIDTH)
    return scores + _OFFSETS[params.variant]


@pytest.mark.parametrize("variant", (OVERWORLD, UNDERGROUND))
def test_batches_match_single_rows_and_the_float64_argmax(variant):
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


@pytest.fixture(scope="module", params=(OVERWORLD, UNDERGROUND))
def survey_references(request):
    """For each of the 14 survey decoders of a variant (seeds 1..7 at the
    survey's latent and concatenation-half sizes, 500 LHS rows each):
    (seed, dim, the smallest top-2 margin of the float64 reference scores,
    the largest deviation of the float32 screen from them).  Built once per variant;
    the full reference is 20 MB a decoder, so only these are kept."""
    out = []
    for seed in range(1, 8):
        for dim in (10, 5):
            params = decoder_params(request.param, seed, dim)
            Z = lhs_points(500, dim, -np.ones(dim), np.ones(dim), seed)
            reference = _reference_scores(params, Z)
            top2 = np.sort(reference, axis=1)[:, -2:]
            hidden = np.tanh(Z @ params.w1.T + params.b1)
            screened = _screen_scores(params, hidden)
            error = np.abs(screened - reference.reshape(
                len(Z), N_TILE_TYPES, HEIGHT * WIDTH).transpose(1, 2, 0)).max()
            out.append((seed, dim, (top2[:, 1] - top2[:, 0]).min(), error))
    return out


def test_argmax_margins_dwarf_batch_rounding(survey_references):
    # A chunked matrix product rounds scores differently from a per-row one;
    # a tile could flip only where its two best channels are this close.
    for seed, dim, margin, _ in survey_references:
        assert margin >= 1e-12, (seed, dim)


def test_exact_ties_go_to_the_lowest_channel():
    rng = np.random.default_rng(6)
    # Three score levels over 13 channels: most cells tie at the top across
    # several channels.  The screen settles only the cells with one top
    # channel, and settles them on it.
    scores = rng.integers(-1, 2, size=(N_TILE_TYPES, 15, 6)).astype(np.float32)
    scores[:, 0, 0] = 0.25                    # all thirteen tie
    scores[:, 1, 0] = -1.0
    scores[11:, 1, 0] = 2.0                   # the last two tie
    scores[3, 2, 0] = np.nextafter(scores[:, 2, 0].max(), np.float32(np.inf))
    top, unsettled = _screen(scores)
    ties = (scores == scores.max(axis=0)).sum(axis=0)
    assert (ties >= 3).any() and (ties == 1).any()
    open_cells = ties > 1
    open_cells[2, 0] = True                   # one float32 ulp apart
    assert np.array_equal(unsettled, open_cells)
    assert np.array_equal(top[~unsettled], scores.argmax(axis=0)[~unsettled])
    # Decoding leaves those cells to float64, where the lowest tied channel
    # wins.  With no output weights every score is tanh(b2) plus its
    # offset; below, two channels without offsets tie at tanh(0.3)
    # everywhere and beat the rest except where an underground offset lifts
    # ground.
    params = decoder_params(UNDERGROUND, 1, 4)
    b2 = np.zeros((N_TILE_TYPES, HEIGHT * WIDTH))
    b2[[QUESTION_COIN, TUBE_TOP_RIGHT]] = 0.3
    b2 = b2.ravel()
    tied = dataclasses.replace(
        params, w2_hi=np.zeros_like(params.w2_hi),
        w2_lo=np.zeros_like(params.w2_lo), b2=b2, b2_hi=b2.astype(np.float32))
    grid = decode_levels(tied, np.zeros((1, 4)))[0]
    assert QUESTION_COIN < TUBE_TOP_RIGHT
    assert (grid.cells[1:13] == QUESTION_COIN).all()
    assert (grid.cells[[0, 13]] == GROUND).all()


def test_the_screen_leaves_channels_within_its_tolerance_open():
    scores = np.zeros((N_TILE_TYPES, 3, 1), dtype=np.float32)
    scores[3] = 1.0
    scores[9, 0] = 1.0 - SCREEN_TOL / 2       # within: float64 decides
    scores[9, 1] = 1.0 - 2 * SCREEN_TOL       # outside: channel 3 stands
    scores[9, 2] = 1.0 + SCREEN_TOL / 2       # within, and on top
    top, unsettled = _screen(scores)
    assert unsettled[:, 0].tolist() == [True, False, True]
    assert top[1, 0] == 3


@pytest.mark.parametrize("variant", (OVERWORLD, UNDERGROUND))
@pytest.mark.parametrize("dim", (10, 5))
def test_resolving_every_cell_in_float64_changes_no_grid(variant, dim,
                                                        monkeypatch):
    params = decoder_params(variant, 5, dim)
    for n in (1, 33, 500):
        Z = np.random.default_rng(n).uniform(-1.0, 1.0, (n, dim))
        screened = decode_levels(params, Z)
        with monkeypatch.context() as m:
            m.setattr(decoder, "SCREEN_TOL", np.inf)
            resolved = decode_levels(params, Z)
        assert resolved == screened
        raw = _reference_scores(params, Z).argmax(axis=1)
        cells = np.array([g.cells for g in resolved])
        assert np.array_equal(cells[:, 1:13], raw[:, 1:13]), n


def test_screen_errors_stay_within_half_the_tolerance(survey_references):
    worst = max(error for _, _, _, error in survey_references)
    assert worst <= SCREEN_TOL / 2


@pytest.mark.parametrize("variant", (OVERWORLD, UNDERGROUND))
def test_weight_pair_rebuilds_the_float64_draw(variant):
    for seed, dim in ((1, 10), (4, 5), (7, 3)):
        params = decoder_params(variant, seed, dim)
        w1, b1, w2, b2 = _float64_weights(variant, seed, dim)
        for got, want in ((params.w1, w1), (params.b1, b1), (params.b2, b2)):
            assert np.array_equal(got, want)
        assert np.array_equal(params.b2_hi, b2.astype(np.float32))
        assert np.array_equal(params.w2_hi, w2.astype(np.float32))
        pair = params.w2_hi.astype(float) + params.w2_lo
        assert np.abs(pair - w2).max() <= 2.0 ** -50 * 0.125
        for arr, shape in ((params.w2_hi, (OUTPUTS, HIDDEN)),
                           (params.w2_lo, (OUTPUTS, HIDDEN)),
                           (params.b2_hi, (OUTPUTS,))):
            assert arr.dtype == np.float32 and arr.shape == shape
            assert not arr.flags.writeable
