"""Analytic baseline functions with seeded optimum shifts, plus Shekel foxholes.

Instance seed 1 is the unshifted base function; seeds >= 2 translate the
function so its optimum lands uniformly inside the central 50% of the box:
f_seed(x) = f_base(x - shift), which preserves level-set geometry exactly.
Shekel instances instead redraw peak locations and widths per seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._seeds import NS_BASELINE, NS_SHEKEL, rng_for
from ..errors import OutOfBounds, UnknownProblem, UnsupportedSeed

_SCHWEFEL_OFFSET = 418.9828872724339
_SCHWEFEL_OPT = 420.968746


# Each function maps the shifted rows of an (n, d) design to (n,) values, bit
# for bit what its formula gives one row at a time: reductions over axis 1,
# np.vecdot for dot products, np.float_power for the d=1 Rosenbrock square.

def _sphere(X):
    return np.vecdot(X, X)


def _ellipsoid(X):
    d = X.shape[1]
    if d == 1:
        return X[:, 0] * X[:, 0]
    expo = 6.0 * np.arange(d) / (d - 1)
    return np.sum(10.0 ** expo * X * X, axis=1)


def _rastrigin(X):
    return 10.0 * X.shape[1] + np.sum(X * X - 10.0 * np.cos(2.0 * np.pi * X),
                                      axis=1)


def _rosenbrock(X):
    if X.shape[1] == 1:
        return np.float_power(1.0 - X[:, 0], 2.0)
    return np.sum(100.0 * (X[:, 1:] - X[:, :-1] ** 2) ** 2
                  + (1.0 - X[:, :-1]) ** 2, axis=1)


def _ackley(X):
    return (-20.0 * np.exp(-0.2 * np.sqrt(np.mean(X * X, axis=1)))
            - np.exp(np.mean(np.cos(2.0 * np.pi * X), axis=1))
            + 20.0 + np.e)


def _griewank(X):
    idx = np.sqrt(np.arange(1.0, X.shape[1] + 1.0))
    return (np.sum(X * X, axis=1) / 4000.0
            - np.prod(np.cos(X / idx), axis=1) + 1.0)


def _schwefel(X):
    return _SCHWEFEL_OFFSET * X.shape[1] - np.sum(
        X * np.sin(np.sqrt(np.abs(X))), axis=1)


def _linear_slope(X):
    # Non-negative on the unshifted box, minimum at the lower corner.
    d = X.shape[1]
    weights = np.ones(1) if d == 1 else 1.0 + 9.0 * np.arange(d) / (d - 1)
    return np.vecdot(weights, X + 5.0)


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
_SHEKEL_PEAKS = {f"shekel-{p}": p for p in SHEKEL_PEAK_COUNTS}


def baseline_box(name: str) -> tuple[float, float]:
    if name in _BASELINES:
        return _BASELINES[name][1], _BASELINES[name][2]
    if name in _SHEKEL_PEAKS:
        return 0.0, 10.0
    raise UnknownProblem(name)


def _shift(name: str, instance_seed: int, d: int) -> np.ndarray:
    fn, lo, hi, opt = _BASELINES[name]
    if instance_seed == 1:
        return np.zeros(d)
    rng = rng_for(NS_BASELINE, list(_BASELINES).index(name), instance_seed, d)
    center = (lo + hi) / 2.0
    target = center + (rng.uniform(size=d) - 0.5) * 0.5 * (hi - lo)
    return target - opt


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


def shekel_instance(peaks: int, instance_seed: int, d: int) -> ShekelInstance:
    if peaks not in SHEKEL_PEAK_COUNTS:
        raise UnknownProblem(f"shekel peak count {peaks} not offered")
    if instance_seed < 1:
        raise UnsupportedSeed("shekel instance seeds start at 1")
    rng = rng_for(NS_SHEKEL, peaks, instance_seed, d)
    locations = rng.uniform(0.0, 10.0, size=(peaks, d))
    widths = 1.0 - rng.uniform(size=peaks)  # in (0, 1]: no singular peaks
    return ShekelInstance(peaks, locations, widths)


def baseline_eval(name: str, instance_seed: int, X: np.ndarray) -> np.ndarray:
    """Values of baseline name's instance at the rows of an (n, d) design."""
    lo, hi = baseline_box(name)
    if instance_seed < 1:
        raise UnsupportedSeed("baseline instance seeds start at 1")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or not np.all((X >= lo) & (X <= hi)):  # false for NaN too
        raise OutOfBounds(f"{name} expects an (n, d) design with coordinates "
                          f"in [{lo:g}, {hi:g}]")
    d = X.shape[1]
    if name in _BASELINES:
        return _BASELINES[name][0](X - _shift(name, instance_seed, d))
    inst = shekel_instance(_SHEKEL_PEAKS[name], instance_seed, d)
    sq = ((X[:, np.newaxis, :] - inst.locations) ** 2).sum(axis=2)
    return -np.sum(1.0 / (inst.widths + sq), axis=1)
