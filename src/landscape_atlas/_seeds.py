"""Seed-stream derivation.

Every stochastic component draws from a numpy PCG64 generator seeded with a
SeedSequence over (namespace, *keys).  Namespaces keep streams for unrelated
components statistically independent even when the user-facing seeds collide.
"""
from __future__ import annotations

import numpy as np

NS_DECODER = 11
NS_BASELINE = 21
NS_SHEKEL = 22
NS_WALK = 31
NS_LHS = 41
NS_FEATURES = 42
NS_FOREST = 51


def rng_for(namespace: int, *keys: int) -> np.random.Generator:
    seq = np.random.SeedSequence([namespace, *[int(k) for k in keys]])
    return np.random.Generator(np.random.PCG64(seq))
