"""Tile alphabet and the TileGrid container.

Thirteen tile types, encoded 0..12.  Flags drive the fitness measures and the
simulator: ``standable`` tiles support the agent from below, ``pretty`` tiles
count as decoration, hazard tiles hurt agents, and the leniency measure scores
power-ups (P) against hazards (N).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EmptyInput, HeightMismatch

AIR = 0
GROUND = 1
DESTRUCTIBLE = 2
QUESTION_POWERUP = 3
QUESTION_COIN = 4
COIN = 5
TUBE_TOP_LEFT = 6
TUBE_TOP_RIGHT = 7
TUBE_BODY = 8
BULLET_BILL = 9
PIRANHA_TUBE = 10
PLATFORM = 11
ENEMY = 12

N_TILE_TYPES = 13

TILE_NAMES = (
    "Air", "Ground", "Destructible", "QuestionPowerUp", "QuestionCoin",
    "Coin", "TubeTopLeft", "TubeTopRight", "TubeBody", "BulletBillColumn",
    "PiranhaTube", "Platform", "Enemy",
)

STANDABLE = frozenset({
    GROUND, DESTRUCTIBLE, QUESTION_POWERUP, QUESTION_COIN,
    TUBE_TOP_LEFT, TUBE_TOP_RIGHT, BULLET_BILL, PLATFORM,
})
PRETTY = frozenset({
    TUBE_TOP_LEFT, TUBE_TOP_RIGHT, TUBE_BODY, PIRANHA_TUBE, ENEMY,
    DESTRUCTIBLE, QUESTION_POWERUP, QUESTION_COIN, BULLET_BILL,
})
HAZARD = frozenset({BULLET_BILL, PIRANHA_TUBE, ENEMY})
LENIENT_P = frozenset({QUESTION_POWERUP})
LENIENT_N = HAZARD

# Boolean lookup tables indexed by tile code.
STANDABLE_MASK = np.array([c in STANDABLE for c in range(N_TILE_TYPES)])
PRETTY_MASK = np.array([c in PRETTY for c in range(N_TILE_TYPES)])
HAZARD_MASK = np.array([c in HAZARD for c in range(N_TILE_TYPES)])
# The same flags as bytes.translate tables: byte 1 at a flagged code, 0 at
# every other byte value, so ``cells.tobytes().translate(STANDABLE_BYTES)``
# is STANDABLE_MASK[cells] as one 0/1 byte per cell, in row order.
STANDABLE_BYTES = bytes(c in STANDABLE for c in range(256))
PRETTY_BYTES = bytes(c in PRETTY for c in range(256))
HAZARD_BYTES = bytes(c in HAZARD for c in range(256))
_ZERO_BYTES = b"\1" + bytes(255)

ASCII_LEGEND = "-XS?QO<>[BP=E"
_CODE_OF_CHAR = {ch: code for code, ch in enumerate(ASCII_LEGEND)}


def _valid_codes(a: np.ndarray) -> bool:
    """Whether every entry of a is an integer in 0..12, by one check for
    every dtype.  Decoded grids skip it (TileGrid._trusted)."""
    if a.dtype.kind not in "biuf":
        return False
    valid = (a >= 0) & (a < N_TILE_TYPES)  # False for NaN
    if a.dtype.kind == "f":
        valid &= a == np.floor(a)
    return bool(valid.all())


def open_columns(standable: bytes, width: int) -> bytes:
    """One byte per column, 1 where no row holds a standable tile; standable
    is a grid's cells translated by STANDABLE_BYTES."""
    # The rows as one big-endian int, ORed onto the last row 1, 2, 4, ...
    # rows at a time (0/1 bytes never carry).
    rows = int.from_bytes(standable, "big")
    shift = 1
    while shift < len(standable) // width:
        rows |= rows >> (8 * width * shift)
        shift *= 2
    return rows.to_bytes(len(standable), "big")[-width:].translate(
        _ZERO_BYTES)


@dataclass(frozen=True, slots=True)
class TileGrid:
    """A height x width matrix of tile codes, row 0 at the top."""

    cells: np.ndarray

    def __post_init__(self):
        cells = np.asarray(self.cells)
        if cells.ndim != 2 or cells.size == 0:
            raise EmptyInput("grid must be a non-empty 2-D matrix")
        # Checked before the int8 cast, which would wrap 256 to 0 and cut
        # 1.5 to 1.
        if not _valid_codes(cells):
            raise ValueError("tile codes must be integers in 0..12")
        cells = cells.astype(np.int8)
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    @classmethod
    def _trusted(cls, cells: np.ndarray) -> TileGrid:
        """A grid over cells without the checks and the copy: the caller
        guarantees a read-only 2-D int8 array of codes 0..12."""
        grid = object.__new__(cls)
        object.__setattr__(grid, "cells", cells)
        return grid

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    @property
    def n_tot(self) -> int:
        return self.cells.size

    @property
    def n_st(self) -> int:
        return self.cells.tobytes().translate(STANDABLE_BYTES).count(1)

    @property
    def n_pt(self) -> int:
        return self.cells.tobytes().translate(PRETTY_BYTES).count(1)

    def __eq__(self, other) -> bool:
        return isinstance(other, TileGrid) and np.array_equal(self.cells, other.cells)

    def __hash__(self) -> int:
        return hash((self.cells.shape, self.cells.tobytes()))


def concatenate(segments: list[TileGrid]) -> TileGrid:
    """Join segments left to right into one wider grid."""
    if not segments:
        raise EmptyInput("no segments to concatenate")
    height = segments[0].height
    for seg in segments[1:]:
        if seg.height != height:
            raise HeightMismatch(f"segment heights differ: {height} vs {seg.height}")
    cells = np.hstack([seg.cells for seg in segments])
    cells.flags.writeable = False
    return TileGrid._trusted(cells)


def render_ascii(grid: TileGrid) -> str:
    """One character per cell, one line per row."""
    legend = np.array(list(ASCII_LEGEND))
    return "\n".join("".join(row) for row in legend[grid.cells])


def parse_ascii(text: str) -> TileGrid:
    """Inverse of render_ascii."""
    lines = text.splitlines()
    if not lines:
        raise EmptyInput("no rows to parse")
    try:
        cells = [[_CODE_OF_CHAR[ch] for ch in line] for line in lines]
    except KeyError as exc:
        raise ValueError(f"unknown tile character {exc.args[0]!r}") from None
    widths = {len(row) for row in cells}
    if len(widths) != 1:
        raise ValueError("rows have differing widths")
    return TileGrid(np.array(cells, dtype=np.int8))
