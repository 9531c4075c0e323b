"""Deterministic latent-to-level decoder.

A fixed-weight two-layer tanh network maps a latent vector to 13 channel
score matrices of shape 14 x 28; each cell becomes the tile whose channel
scores highest.  Per-variant channel offsets shape the raw output (ground
floors, open sky overworld, sparse hazards) and a post-pass enforces the
variant's structural guarantees: underground levels are capped by solid top
and bottom rows, overworld levels get a floor only in columns whose bottom
two raw rows already carry something standable — the rest become gaps.
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
CHUNK_ROWS = 32

OVERWORLD = "overworld"
UNDERGROUND = "underground"
_VARIANT_CODES = {OVERWORLD: 0, UNDERGROUND: 1}

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

# Channel c ranks N_TILE_TYPES - c, so the lowest of tied top channels ranks
# highest.
_CHANNEL_RANK = np.arange(N_TILE_TYPES, 0, -1, dtype=np.uint8)[:, None, None]


def _channel_argmax(scores: np.ndarray) -> np.ndarray:
    """The top channel of every cell of an (n, N_TILE_TYPES, h, w) score
    stack, ties going to the lowest channel: np.argmax(axis=1) for finite
    scores, without its strided per-cell scan over the channel axis."""
    top = scores.max(axis=1, keepdims=True)
    return N_TILE_TYPES - ((scores == top) * _CHANNEL_RANK).max(axis=1)


@dataclass(frozen=True)
class DecoderParams:
    variant: str
    instance_seed: int
    dim: int
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@lru_cache(maxsize=64)
def decoder_params(variant: str, instance_seed: int, dim: int) -> DecoderParams:
    """Weights for one (variant, seed, input-dimension) triple."""
    if variant not in _VARIANT_CODES:
        raise ValueError(f"unknown variant {variant!r}")
    rng = rng_for(NS_DECODER, _VARIANT_CODES[variant], instance_seed, dim)
    s1 = 1.0 / np.sqrt(dim)
    s2 = 1.0 / np.sqrt(HIDDEN)
    w1 = rng.uniform(-s1, s1, size=(HIDDEN, dim))
    b1 = rng.uniform(-s1, s1, size=HIDDEN)
    w2 = rng.uniform(-s2, s2, size=(N_TILE_TYPES * HEIGHT * WIDTH, HIDDEN))
    b2 = rng.uniform(-s2, s2, size=N_TILE_TYPES * HEIGHT * WIDTH)
    for arr in (w1, b1, w2, b2):
        arr.flags.writeable = False
    return DecoderParams(variant, instance_seed, dim, w1, b1, w2, b2)


def decode_levels(params: DecoderParams, Z: np.ndarray) -> list[TileGrid]:
    """Decode each row of an (n, dim) latent design into a tile grid.

    Rows pass through the network CHUNK_ROWS at a time, one matrix product
    per chunk, which bounds the score temporaries at CHUNK_ROWS x 5096
    floats.  How rows are grouped moves scores by rounding only; the
    decoders' top-two channel margins stay far above that, so every row
    decodes to the same grid alone or in any batch.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != params.dim:
        raise OutOfBounds(f"latent vector must have length {params.dim}")
    # The positive form is false for NaN, so non-finite rows are rejected.
    if not np.all((Z >= -1.0) & (Z <= 1.0)):
        raise OutOfBounds("latent coordinates must lie in [-1, 1]")
    offsets = _OFFSETS[params.variant]
    raw = np.empty((Z.shape[0], HEIGHT, WIDTH), dtype=np.int8)
    for start in range(0, Z.shape[0], CHUNK_ROWS):
        rows = slice(start, start + CHUNK_ROWS)
        hidden = np.tanh(Z[rows] @ params.w1.T + params.b1)
        scores = hidden @ params.w2.T
        scores += params.b2
        np.tanh(scores, out=scores)
        scores = scores.reshape(-1, N_TILE_TYPES, HEIGHT, WIDTH)
        scores += offsets
        raw[rows] = _channel_argmax(scores)
    if params.variant == UNDERGROUND:
        raw[:, 0, :] = GROUND
        raw[:, 13, :] = GROUND
    else:
        floored = STANDABLE_MASK[raw[:, 12:14, :]].any(axis=1)
        raw[:, 13, :][floored] = GROUND
    # The argmax gives codes 0..12, so each row is a valid grid as it is.
    raw.flags.writeable = False
    return [TileGrid._trusted(cells) for cells in raw]
