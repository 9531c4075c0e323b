"""Diagonal walks: equidistant points on a random line through an anchor.

A walk enumerates every integer offset k for which anchor + k*step*direction
stays inside the box, so traces are limited by the search-space boundary and
the anchor (offset 0) is generally not centred.  Anchors and directions come
from a stream keyed only by (anchor_seed, d), so different problems over the
same box see identical walks and traces are directly comparable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._seeds import NS_WALK, rng_for
from .errors import AnchorOutOfBounds, DegenerateDirection
from .problems.core import ProblemInstance, evaluate_batch

# The most offsets a walk may bracket.  The offsets and points are built as
# arrays of the bracket's length, so a step far below the box's size would
# otherwise ask for memory in proportion to box size / step.
MAX_WALK_POINTS = 10 ** 6


@dataclass(frozen=True)
class WalkSpec:
    anchor: np.ndarray
    direction: np.ndarray
    step: float

    def __post_init__(self):
        anchor = np.asarray(self.anchor, dtype=float)
        direction = np.asarray(self.direction, dtype=float)
        norm = float(np.linalg.norm(direction))  # not finite if an entry is not
        if not (math.isfinite(norm) and math.isfinite(self.step)
                and np.isfinite(anchor).all()):
            raise ValueError("anchor, direction and step must be finite")
        if norm == 0.0:
            raise DegenerateDirection("direction must be a nonzero vector")
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        direction = direction / norm
        anchor.flags.writeable = False
        direction.flags.writeable = False
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "direction", direction)


@dataclass(frozen=True)
class WalkTrace:
    spec: WalkSpec
    offsets: tuple[int, ...]
    points: np.ndarray
    values: tuple[float, ...]


def default_step(instance: ProblemInstance) -> float:
    """2% of the box diagonal, scaled so walks keep ~the same point count
    across dimensions."""
    box = instance.domain
    diagonal = float(np.linalg.norm(box.upper - box.lower))
    return 0.02 * diagonal / math.sqrt(box.dimension)


def _walks(instance: ProblemInstance, specs: list[WalkSpec]) -> list[WalkTrace]:
    """The traces of specs, whose points are evaluated as one design."""
    box = instance.domain
    scale = np.maximum(np.abs(box.lower), np.abs(box.upper))
    walked = []
    for spec in specs:
        anchor, direction = spec.anchor, spec.direction
        if not box.contains(anchor):
            raise AnchorOutOfBounds("anchor must lie inside the box")
        # Bracket the offsets that stay inside by the per-coordinate
        # crossings, one wider on each side against rounding, and test each
        # point exactly.  Every coordinate is monotone in k, so the kept
        # offsets run contiguously through 0.  A coordinate that moves by
        # only a few ulps of the box per step may round onto its face for
        # several steps past the crossing, so only coordinates that move by
        # more than 1e-12 of the box's scale bracket k; the others are left
        # to the exact test.
        move = spec.step * direction
        moving = np.abs(move) > 1e-12 * scale
        if not moving.any():
            raise ValueError(f"step {spec.step:g} moves no coordinate by "
                             f"more than 1e-12 of the box's scale")
        a = (box.lower - anchor)[moving] / move[moving]
        b = (box.upper - anchor)[moving] / move[moving]
        first = math.floor(np.minimum(a, b).max()) - 1
        stop = math.ceil(np.maximum(a, b).min()) + 2
        if stop - first > MAX_WALK_POINTS:
            raise ValueError(
                f"step {spec.step:g} brackets {stop - first} walk points, "
                f"more than the {MAX_WALK_POINTS} a walk may take")
        k = np.arange(first, stop)
        points = anchor + (k[:, None] * spec.step) * direction
        inside = np.all((points >= box.lower) & (points <= box.upper), axis=1)
        walked.append((tuple(k[inside].tolist()), points[inside]))
    values = evaluate_batch(instance, np.vstack([p for _, p in walked]))
    cuts = np.cumsum([len(offsets) for offsets, _ in walked])[:-1]
    return [WalkTrace(spec, offsets, points, tuple(v.tolist()))
            for spec, (offsets, points), v
            in zip(specs, walked, np.split(values, cuts))]


def diagonal_walk(instance: ProblemInstance, spec: WalkSpec) -> WalkTrace:
    return _walks(instance, [spec])[0]


def walk_bundle(instance: ProblemInstance, anchor_seed: int,
                n_directions: int, step: float | None = None) -> list[WalkTrace]:
    """n walks through one random anchor; same seed gives the same anchor
    and directions for every problem sharing the box.  The walks are
    evaluated as one design, so problems that share a decoder share the
    bundle's grids and runs."""
    if n_directions < 1:
        raise ValueError("need at least one direction")
    box = instance.domain
    d = box.dimension
    rng = rng_for(NS_WALK, anchor_seed, d)
    anchor = box.lower + rng.uniform(size=d) * (box.upper - box.lower)
    if step is None:
        step = default_step(instance)
    specs = [WalkSpec(anchor, rng.standard_normal(d), step)
             for _ in range(n_directions)]
    return _walks(instance, specs)
