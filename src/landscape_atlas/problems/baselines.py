"""Analytic baseline functions with seeded optimum shifts, plus Shekel foxholes.

Instance seed 1 is the unshifted base function; seeds >= 2 translate the
function so its optimum lands uniformly inside the central 50% of the box:
f_seed(x) = f_base(x - shift), which preserves level-set geometry exactly.
Shekel instances instead redraw peak locations and widths per seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .._seeds import NS_BASELINE, NS_SHEKEL, rng_for
from ..errors import OutOfBounds, UnknownProblem, UnsupportedSeed

_SCHWEFEL_OFFSET = 418.9828872724339
_SCHWEFEL_OPT = 420.968746


def _sphere(x):
    return float(np.dot(x, x))


def _ellipsoid(x):
    d = x.size
    if d == 1:
        return float(x[0] * x[0])
    expo = 6.0 * np.arange(d) / (d - 1)
    return float(np.sum(10.0 ** expo * x * x))


def _rastrigin(x):
    return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))


def _rosenbrock(x):
    if x.size == 1:
        return float((1.0 - x[0]) ** 2)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _ackley(x):
    return float(
        -20.0 * np.exp(-0.2 * np.sqrt(np.mean(x * x)))
        - np.exp(np.mean(np.cos(2.0 * np.pi * x)))
        + 20.0 + np.e
    )


def _griewank(x):
    idx = np.sqrt(np.arange(1.0, x.size + 1.0))
    return float(np.sum(x * x) / 4000.0 - np.prod(np.cos(x / idx)) + 1.0)


def _schwefel(x):
    return float(_SCHWEFEL_OFFSET * x.size - np.sum(x * np.sin(np.sqrt(np.abs(x)))))


def _slope_weights(d: int) -> np.ndarray:
    if d == 1:
        return np.ones(1)
    return 1.0 + 9.0 * np.arange(d) / (d - 1)


def _linear_slope(x):
    # Non-negative on the unshifted box, minimum at the lower corner.
    return float(np.dot(_slope_weights(x.size), x + 5.0))


# name -> (function, box low, box high, unshifted minimiser coordinate)
_BASELINES = {
    "sphere": (_sphere, -5.0, 5.0, 0.0),
    "ellipsoid": (_ellipsoid, -5.0, 5.0, 0.0),
    "rastrigin": (_rastrigin, -5.12, 5.12, 0.0),
    "rosenbrock": (_rosenbrock, -5.0, 10.0, 1.0),
    "ackley": (_ackley, -32.768, 32.768, 0.0),
    "griewank": (_griewank, -600.0, 600.0, 0.0),
    "schwefel": (_schwefel, -500.0, 500.0, _SCHWEFEL_OPT),
    "linear-slope": (_linear_slope, -5.0, 5.0, 0.0),
}

BASELINE_NAMES = tuple(_BASELINES)
SHEKEL_PEAK_COUNTS = (3, 5, 7, 10, 20, 30, 40, 50)
SHEKEL_SEEDS = 5


def baseline_box(name: str) -> tuple[float, float]:
    if name in _BASELINES:
        return _BASELINES[name][1], _BASELINES[name][2]
    if name.startswith("shekel-"):
        return 0.0, 10.0
    raise UnknownProblem(name)


@lru_cache(maxsize=512)
def _shift(name: str, instance_seed: int, d: int) -> np.ndarray:
    fn, lo, hi, opt = _BASELINES[name]
    if instance_seed == 1:
        shift = np.zeros(d)
    else:
        rng = rng_for(NS_BASELINE, list(_BASELINES).index(name), instance_seed, d)
        center = (lo + hi) / 2.0
        target = center + (rng.uniform(size=d) - 0.5) * 0.5 * (hi - lo)
        shift = target - opt
    shift.flags.writeable = False
    return shift


def baseline_eval(name: str, instance_seed: int, d: int, x: np.ndarray) -> float:
    if name not in _BASELINES:
        raise UnknownProblem(name)
    if instance_seed < 1:
        raise UnsupportedSeed("baseline instance seeds start at 1")
    fn, lo, hi, _ = _BASELINES[name]
    x = np.asarray(x, dtype=float)
    if not np.all((x >= lo) & (x <= hi)):  # false for NaN too
        raise OutOfBounds(f"{name} expects coordinates in [{lo}, {hi}]")
    return fn(x - _shift(name, instance_seed, d))


@dataclass(frozen=True)
class ShekelInstance:
    peaks: int
    locations: np.ndarray  # peaks x d
    widths: np.ndarray     # peaks

    def __post_init__(self):
        if self.locations.ndim != 2 or self.locations.shape[0] != self.peaks \
                or self.widths.shape != (self.peaks,):
            raise ValueError("need locations of shape (peaks, d) and one "
                             "width per peak")


@lru_cache(maxsize=512)
def shekel_instance(peaks: int, instance_seed: int, d: int) -> ShekelInstance:
    if peaks not in SHEKEL_PEAK_COUNTS:
        raise UnknownProblem(f"shekel peak count {peaks} not offered")
    if instance_seed < 1:
        raise UnsupportedSeed("shekel instance seeds start at 1")
    rng = rng_for(NS_SHEKEL, peaks, instance_seed, d)
    locations = rng.uniform(0.0, 10.0, size=(peaks, d))
    widths = 1.0 - rng.uniform(size=peaks)  # in (0, 1]: no singular peaks
    locations.flags.writeable = False
    widths.flags.writeable = False
    return ShekelInstance(peaks, locations, widths)


def shekel_eval(inst: ShekelInstance, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x <= 10.0)):  # false for NaN too
        raise OutOfBounds("shekel expects coordinates in [0, 10]")
    sq = ((x - inst.locations) ** 2).sum(axis=1)
    return float(-np.sum(1.0 / (inst.widths + sq)))
