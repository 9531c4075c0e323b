"""Latin hypercube designs over problem instances."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._seeds import NS_LHS, rng_for
from ..errors import BadSampleSize
from ..problems.core import ProblemInstance, evaluate_batch


@dataclass(frozen=True)
class SampleSet:
    """A design X of shape (n, d) with d >= 1 and its responses y of shape
    (n,), read-only.  Non-finite entries are refused with a ValueError that
    names X or y."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2 or X.shape[1] < 1 or y.shape != (X.shape[0],):
            raise ValueError("need X of shape (n, d >= 1) and y of shape (n,)")
        if X.shape[0] < 2 * X.shape[1]:
            raise ValueError("need n >= 2d sample points")
        for name, a in (("X", X), ("y", y)):
            if not np.isfinite(a).all():
                raise ValueError(f"non-finite entries in {name}")
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def lhs_points(n: int, d: int, lower: np.ndarray, upper: np.ndarray,
               sample_seed: int) -> np.ndarray:
    """n points with exactly one per stratum in each coordinate's n-way
    equal-width stratification; placement within a stratum is uniform."""
    if n < 2:
        raise BadSampleSize("latin hypercube designs need n >= 2")
    rng = rng_for(NS_LHS, sample_seed, n, d)
    X = np.empty((n, d))
    for j in range(d):
        strata = rng.permutation(n)
        u = rng.uniform(size=n)
        X[:, j] = lower[j] + (strata + u) / n * (upper[j] - lower[j])
    return X


def lhs_sample(instance: ProblemInstance, n: int, sample_seed: int) -> SampleSet:
    box = instance.domain
    X = lhs_points(n, box.dimension, box.lower, box.upper, sample_seed)
    y = evaluate_batch(instance, X)
    return SampleSet(X, y)
