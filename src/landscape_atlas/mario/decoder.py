"""Deterministic latent-to-level decoder.

A fixed-weight two-layer tanh network maps a latent vector to 13 channel
score matrices of shape 14 x 28; each cell becomes the tile whose channel
scores highest.  Per-variant channel offsets shape the raw output (ground
floors, open sky overworld, sparse hazards) and a post-pass enforces the
variant's structural guarantees: underground levels are capped by solid top
and bottom rows, overworld levels get a floor only in columns whose bottom
two raw rows already carry something standable — the rest become gaps.

Every cell takes the channel that its float64 scores rank first, found in
two steps.  A float32 screen scores all 5096 outputs from ``w2_hi``, the
float32 rounding of the output weights ``w2``.  A cell whose screen has
exactly one channel at or above ``top - SCREEN_TOL`` takes that channel.
Every other cell is resolved in float64: its 13 channel scores are
recomputed from ``w2_hi + w2_lo`` (``w2_lo`` is the float32 rounding of
``w2 - w2_hi``), ``b2`` and the float64 offsets, and the lowest of its top
channels wins.

Why the screen never flips a tile.  Let u = 2^-24, the float32 unit
roundoff; the hidden layer h is float64 with |h_j| <= 1, so ||h||_1 <= 64,
and |w2|, |b2| <= 1/8, so a pre-activation lies within 8.125 of 0.  The
screened score of one channel differs from its float64 score by at most

- the product fl32(h) . w2_hi: the casts of h and w2 and a 64-term dot
  product in any order put at most 66u on each term, so at most
  66 u (1/8) ||h||_1 <= 3.15e-5;
- the cast of b2 (u / 8 <= 7.5e-9) and the rounding of its add
  (8.125 u <= 4.9e-7);
- numpy's float32 tanh, at most 2 ulp of a value below 1 (its accuracy
  tests allow 2 ulp): <= 1.2e-7; tanh is 1-Lipschitz, so it passes the
  errors above through unscaled;
- the cast of the offsets and the rounding of their add, with scores below
  1.5: <= 9e-8;
- the float64 score's own rounding: below 1e-12.

That is E <= 3.3e-5.  If every other channel screens below ``top -
SCREEN_TOL``, its float64 score is below ``top + E - SCREEN_TOL``, while
the top channel's float64 score is at least ``top - E``; with SCREEN_TOL
>= 2E (1e-4, less the threshold's own float32 rounding of 2e-7, is more
than 6.6e-5) the screened channel is the unique float64 winner.  The
largest error measured over the 28 survey decoders' 500-row LHS designs
was 4.1e-7.

``w2_hi + w2_lo`` is exact in float64 and lies within 2^-53 (2^-50 x 1/8)
of ``w2``, so a resolved cell's scores move by about 1e-14 plus summation
order, and it decodes as a float64 product does wherever the float64
top-two margin exceeds about 1e-13.  The smallest margin measured on the
survey decoders is 3.8e-8.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .._seeds import NS_DECODER, rng_for
from ..errors import OutOfBounds
from .tiles import (
    AIR, ENEMY, GROUND, BULLET_BILL, PIRANHA_TUBE,
    N_TILE_TYPES, STANDABLE_MASK, TileGrid,
)

HEIGHT = 14
WIDTH = 28
HIDDEN = 64
CHUNK_ROWS = 64
# Twice the bound E above on |screened score - float64 score|, rounded up.
SCREEN_TOL = 1e-4

OVERWORLD = "overworld"
UNDERGROUND = "underground"
_VARIANT_CODES = {OVERWORLD: 0, UNDERGROUND: 1}

# Network output j scores channel j // _CELLS at cell j % _CELLS.
_CELLS = HEIGHT * WIDTH
_CHANNEL_BASE = np.arange(N_TILE_TYPES) * _CELLS

# Channel score offsets, applied before the argmax.  Hazard channels are
# damped everywhere so hazards stay sparse; overworld favours ground in the
# bottom two rows and air in the sky rows; underground favours ground in the
# rows the post-pass will solidify anyway, keeping scores consistent with the
# forced structure.
_HAZARD_OFFSET = -0.1
_STRUCTURE_OFFSET = 0.5
_SKY_ROWS = 7


def _variant_offsets(variant: str) -> np.ndarray:
    off = np.zeros((N_TILE_TYPES, HEIGHT, WIDTH))
    for code in (ENEMY, PIRANHA_TUBE, BULLET_BILL):
        off[code, :, :] += _HAZARD_OFFSET
    if variant == OVERWORLD:
        off[GROUND, 12:14, :] += _STRUCTURE_OFFSET
        off[AIR, 0:_SKY_ROWS, :] += _STRUCTURE_OFFSET
    else:
        off[GROUND, 0, :] += _STRUCTURE_OFFSET
        off[GROUND, 13, :] += _STRUCTURE_OFFSET
    return off


_OFFSETS = {v: _variant_offsets(v) for v in _VARIANT_CODES}
# The float32 offsets the screen adds, laid out as its scores are.
_SCREEN_OFFSETS = {v: off.reshape(N_TILE_TYPES, _CELLS, 1).astype(np.float32)
                   for v, off in _OFFSETS.items()}

# Channel c ranks N_TILE_TYPES - c, so the lowest of several channels ranks
# highest.
_CHANNEL_RANK = np.arange(N_TILE_TYPES, 0, -1, dtype=np.uint8)[:, None, None]


@dataclass(frozen=True)
class DecoderParams:
    variant: str
    instance_seed: int
    dim: int
    w1: np.ndarray
    b1: np.ndarray
    w2_hi: np.ndarray
    w2_lo: np.ndarray
    b2: np.ndarray
    b2_hi: np.ndarray


@lru_cache(maxsize=64)
def decoder_params(variant: str, instance_seed: int, dim: int) -> DecoderParams:
    """Weights for one (variant, seed, input-dimension) triple.

    The output weights w2 are the (5096, 64) draw that ``rng.uniform(-1/8,
    1/8, size=(5096, 64))`` would make, drawn one channel (392 rows) at a
    time through one reused float64 block, so the stream and ``b2`` are
    unchanged.  They are kept only as the float32 pair ``w2_hi = fl32(w2)``
    and ``w2_lo = fl32(w2 - w2_hi)``, the 2.6 MB that float64 w2 took.
    ``b2_hi`` is the float32 rounding of ``b2``.
    """
    if variant not in _VARIANT_CODES:
        raise ValueError(f"unknown variant {variant!r}")
    rng = rng_for(NS_DECODER, _VARIANT_CODES[variant], instance_seed, dim)
    s1 = 1.0 / np.sqrt(dim)
    s2 = 1.0 / np.sqrt(HIDDEN)
    w1 = rng.uniform(-s1, s1, size=(HIDDEN, dim))
    b1 = rng.uniform(-s1, s1, size=HIDDEN)
    w2_hi = np.empty((N_TILE_TYPES * _CELLS, HIDDEN), dtype=np.float32)
    w2_lo = np.empty_like(w2_hi)
    block = np.empty((_CELLS, HIDDEN))
    for start in _CHANNEL_BASE:
        rows = slice(start, start + _CELLS)
        rng.random(out=block)
        # uniform's low + (high - low) * u, with the same two roundings
        block *= 2 * s2
        block -= s2
        w2_hi[rows] = block
        block -= w2_hi[rows]  # exact: what float32 rounded away
        w2_lo[rows] = block
    b2 = rng.uniform(-s2, s2, size=N_TILE_TYPES * _CELLS)
    b2_hi = b2.astype(np.float32)
    for arr in (w1, b1, w2_hi, w2_lo, b2, b2_hi):
        arr.flags.writeable = False
    return DecoderParams(variant, instance_seed, dim, w1, b1, w2_hi, w2_lo, b2,
                         b2_hi)


def _screen_scores(params: DecoderParams, hidden: np.ndarray) -> np.ndarray:
    """The float32 screen's channel scores for an (n, HIDDEN) float64 hidden
    layer, channel-major: (N_TILE_TYPES, 392, n).  The product runs as
    w2_hi @ hidden.T, whose small-n cases OpenBLAS runs several times
    faster than hidden @ w2_hi.T (49 against 217 us at n = 2 on an
    AVX-512 Xeon, OpenBLAS 0.3.31)."""
    scores = params.w2_hi @ hidden.T.astype(np.float32, order="C")
    scores += params.b2_hi[:, None]
    np.tanh(scores, out=scores)
    scores = scores.reshape(N_TILE_TYPES, _CELLS, -1)
    scores += _SCREEN_OFFSETS[params.variant]
    return scores


def _screen(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The top channel of every cell of an (N_TILE_TYPES, cells, n) float32
    score stack, and a mask of the cells where more than one channel scores
    at or above top - SCREEN_TOL.  The top channel is read as the lowest
    channel over that threshold; it stands only where the mask is false."""
    near = scores >= scores.max(axis=0) - SCREEN_TOL
    top = N_TILE_TYPES - (near * _CHANNEL_RANK).max(axis=0)
    return top, near.sum(axis=0, dtype=np.uint8) > 1


def _resolve(params: DecoderParams, hidden: np.ndarray,
             cell: np.ndarray) -> np.ndarray:
    """The float64 top channel of k cells, ties going to the lowest channel:
    ``hidden`` is each cell's (k, HIDDEN) hidden layer and ``cell`` its
    index in the row-major 14 x 28 grid."""
    out = cell[:, None] + _CHANNEL_BASE
    w2 = params.w2_hi[out].astype(float) + params.w2_lo[out]
    scores = np.tanh(np.vecdot(w2, hidden[:, None, :]) + params.b2[out])
    scores += _OFFSETS[params.variant].reshape(N_TILE_TYPES, _CELLS)[:, cell].T
    return np.argmax(scores, axis=1)


def decode_levels(params: DecoderParams, Z: np.ndarray) -> list[TileGrid]:
    """Decode each row of an (n, dim) latent design into a tile grid.

    Rows pass through the network CHUNK_ROWS at a time, one float32 matrix
    product per chunk, which bounds the score temporaries at CHUNK_ROWS x
    5096 float32s.  A cell takes the float32 screen's top channel when no
    other channel screens within SCREEN_TOL of it: the screen is within
    3.3e-5 of the float64 scores (module docstring), so that channel is
    the float64 winner.  Every other cell is resolved from its 13 float64
    channel scores.  How rows are grouped, and which cells the screen
    settles, moves float64 scores by rounding only; the decoders' top-two
    channel margins stay far above that, so every row decodes to the same
    grid alone or in any batch.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != params.dim:
        raise OutOfBounds(f"latent vector must have length {params.dim}")
    # The positive form is false for NaN, so non-finite rows are rejected.
    if not np.all((Z >= -1.0) & (Z <= 1.0)):
        raise OutOfBounds("latent coordinates must lie in [-1, 1]")
    raw = np.empty((Z.shape[0], HEIGHT, WIDTH), dtype=np.int8)
    flat = raw.reshape(-1, _CELLS)
    for start in range(0, Z.shape[0], CHUNK_ROWS):
        chunk = flat[start:start + CHUNK_ROWS]
        hidden = np.tanh(Z[start:start + CHUNK_ROWS] @ params.w1.T + params.b1)
        top, unsettled = _screen(_screen_scores(params, hidden))
        chunk[...] = top.T
        cell, row = np.nonzero(unsettled)
        # A grid's worth of cells at a time bounds _resolve's gathers at
        # 392 x 13 x 64 float64s, whatever the screen leaves open.
        for i in range(0, row.size, _CELLS):
            r, c = row[i:i + _CELLS], cell[i:i + _CELLS]
            chunk[r, c] = _resolve(params, hidden[r], c)
    if params.variant == UNDERGROUND:
        raw[:, 0, :] = GROUND
        raw[:, 13, :] = GROUND
    else:
        floored = STANDABLE_MASK[raw[:, 12:14, :]].any(axis=1)
        raw[:, 13, :][floored] = GROUND
    # The screen and _resolve give codes 0..12, so each row is a valid grid
    # as it is.
    raw.flags.writeable = False
    return [TileGrid._trusted(cells) for cells in raw]
