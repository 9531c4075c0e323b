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

_EDGE_SLACK = 1e-9  # floating-point guard at box-touching offsets


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


def diagonal_walk(instance: ProblemInstance, spec: WalkSpec) -> WalkTrace:
    box = instance.domain
    anchor, direction = spec.anchor, spec.direction
    if not box.contains(anchor):
        raise AnchorOutOfBounds("anchor must lie inside the box")

    def at(k: int) -> np.ndarray:
        return anchor + (k * spec.step) * direction

    k_lo, k_hi = -math.inf, math.inf
    for i in range(box.dimension):
        move = spec.step * direction[i]
        if move == 0.0:
            continue
        a = (box.lower[i] - anchor[i]) / move
        b = (box.upper[i] - anchor[i]) / move
        k_lo = max(k_lo, min(a, b))
        k_hi = min(k_hi, max(a, b))
    # The float estimates can be off by an ulp at boundary-touching offsets;
    # settle both ends by direct containment checks so points are exact.
    k_min, k_max = math.ceil(k_lo - _EDGE_SLACK), math.floor(k_hi + _EDGE_SLACK)
    while box.contains(at(k_max + 1)):
        k_max += 1
    while k_max > 0 and not box.contains(at(k_max)):
        k_max -= 1
    while box.contains(at(k_min - 1)):
        k_min -= 1
    while k_min < 0 and not box.contains(at(k_min)):
        k_min += 1
    offsets = tuple(range(k_min, k_max + 1))
    points = np.array([at(k) for k in offsets])
    values = tuple(evaluate_batch(instance, points).tolist())
    return WalkTrace(spec, offsets, points, values)


def walk_bundle(instance: ProblemInstance, anchor_seed: int,
                n_directions: int, step: float | None = None) -> list[WalkTrace]:
    """n walks through one random anchor; same seed gives the same anchor
    and directions for every problem sharing the box."""
    if n_directions < 1:
        raise ValueError("need at least one direction")
    box = instance.domain
    d = box.dimension
    rng = rng_for(NS_WALK, anchor_seed, d)
    anchor = box.lower + rng.uniform(size=d) * (box.upper - box.lower)
    if step is None:
        step = default_step(instance)
    traces = []
    for _ in range(n_directions):
        direction = rng.standard_normal(d)
        while not np.any(direction):
            direction = rng.standard_normal(d)
        traces.append(diagonal_walk(instance, WalkSpec(anchor, direction, step)))
    return traces
