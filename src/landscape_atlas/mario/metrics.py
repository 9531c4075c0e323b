"""Representation-based fitness measures computed directly on a tile grid.

All five measures are minimised and scaled to [0, 1].  Spread measures use the
population standard deviation; its maximum for values confined to {0..k-1} is
(k-1)/2 (half the mass at each extreme), which normalises them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tiles import (
    ENEMY, LENIENT_N, LENIENT_P, STANDABLE_BYTES, STANDABLE_MASK, TileGrid,
    open_columns,
)


@dataclass(frozen=True)
class GapReport:
    n_gaps: int
    mean_gap_length: float


@dataclass(frozen=True)
class LeniencyBreakdown:
    sum_p: int
    sum_n: int
    v: float
    value: float


def _spread(coords: np.ndarray, max_sd: float) -> float:
    if coords.size < 2 or max_sd == 0.0:  # single row/column: sd is 0 too
        return 1.0
    return float(1.0 - coords.std() / max_sd)


def enemy_distribution(grid: TileGrid) -> float:
    """1 - sd(enemy x-coordinates) / max sd; 1.0 with fewer than 2 enemies."""
    _, xs = np.nonzero(grid.cells == ENEMY)
    return _spread(xs.astype(float), (grid.width - 1) / 2.0)


def position_distribution(grid: TileGrid) -> float:
    """1 - sd(standable y-coordinates) / max sd; 1.0 with fewer than 2."""
    ys, _ = np.nonzero(STANDABLE_MASK[grid.cells])
    return _spread(ys.astype(float), (grid.height - 1) / 2.0)


def decoration_frequency(grid: TileGrid) -> float:
    return float(1.0 - grid.n_pt / grid.n_tot)


def negative_space(grid: TileGrid) -> float:
    return float(1.0 - grid.n_st / grid.n_tot)


def detect_gaps(grid: TileGrid) -> GapReport:
    """Maximal runs of columns with no standable tile, excluding runs that
    touch column 0 (the spawn column cannot be jumped over)."""
    open_col = open_columns(
        grid.cells.tobytes().translate(STANDABLE_BYTES), grid.width)
    # The runs of 1 bytes between 0 bytes; the first run starts at column 0.
    lengths = [len(run) for run in open_col.split(b"\0")[1:] if run]
    if not lengths:
        return GapReport(0, 0.0)
    return GapReport(len(lengths), sum(lengths) / len(lengths))


def leniency(grid: TileGrid) -> LeniencyBreakdown:
    """(v / n_tot + 1) / 2 with v = #P - #N - n_gaps/2 - mean gap length,
    the ratio clamped to [-1, 1] so gap-heavy levels stay in range."""
    cells = grid.cells.tobytes()
    sum_p = sum(map(cells.count, LENIENT_P))
    sum_n = sum(map(cells.count, LENIENT_N))
    gaps = detect_gaps(grid)
    v = sum_p - sum_n - gaps.n_gaps / 2.0 - gaps.mean_gap_length
    ratio = min(1.0, max(-1.0, v / grid.n_tot))
    return LeniencyBreakdown(sum_p, sum_n, v, (ratio + 1.0) / 2.0)
