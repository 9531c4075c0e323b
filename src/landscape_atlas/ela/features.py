"""Exploratory landscape features computed from a sampled design.

Every feature is a finite float; inputs that would make a feature
undefined are mapped to a fixed fallback value and the feature name is
recorded on the vector's ``degenerate`` list instead of raising.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .._seeds import NS_FEATURES, rng_for
from ..errors import AllEqualFitness, ConstantResponse, RankDeficient, TooFewRows
from .sampling import SampleSet

#: Manifest: fixed names in fixed order.  Downstream consumers (property
#: models, similarity maps) key on this exact tuple.
FEATURE_NAMES: tuple[str, ...] = (
    "basic.dim",
    "basic.n_obs",
    "basic.y_min",
    "basic.y_max",
    "basic.y_mean",
    "basic.y_sd",
    "ydist.skewness",
    "ydist.kurtosis",
    "ydist.entropy",
    "meta.lin_r2",
    "meta.quad_r2",
    "meta.lin_coef_min",
    "meta.lin_coef_max",
    "meta.quad_cond",
    "disp.ratio_02",
    "disp.ratio_05",
    "disp.ratio_10",
    "disp.ratio_25",
    "level.mmce_10",
    "level.mmce_25",
    "level.mmce_50",
    "nbc.ratio",
    "nbc.sd_ratio",
    "nbc.cor_nn_y",
    "ic.h_max",
    "ic.eps_max",
    "ic.m0",
    "ic.eps_settle",
    "pca.expl_x_90",
    "pca.expl_xy_90",
    "pca.first_pc_share",
)

_DISP_QUANTILES = (0.02, 0.05, 0.10, 0.25)
_LEVEL_QUANTILES = (0.10, 0.25, 0.50)
_IC_EPSILONS = (0.0,) + tuple(10.0 ** k for k in range(-5, 3))
_IC_SETTLE = 0.05
_IC_SETTLE_FALLBACK = 100.0


@dataclass(frozen=True)
class FeatureVector:
    values: dict[str, float]
    degenerate: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if tuple(self.values.keys()) != FEATURE_NAMES:
            raise ValueError("feature dict must cover the manifest in order")
        for name, v in self.values.items():
            if not math.isfinite(v):
                raise ValueError(f"non-finite feature {name}={v!r}")
        for name in self.degenerate:
            if name not in self.values:
                raise ValueError(f"unknown degenerate feature {name!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.values[n] for n in FEATURE_NAMES])


def _squared_distances(X: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of X; t-SNE uses it too."""
    sq = np.einsum("ij,ij->i", X, X)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


@lru_cache(maxsize=8)
def _upper_pairs(n: int) -> np.ndarray:
    """Flat indices of the strict upper triangle of an n x n matrix, in
    np.triu_indices(n, k=1) order."""
    pairs = np.ravel_multi_index(np.triu_indices(n, k=1), (n, n))
    pairs.flags.writeable = False
    return pairs


def _lstsq_r2(A: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """R^2 of the least-squares fit y ~ A, plus the coefficient vector.

    Raises RankDeficient when A has linearly dependent columns and
    AllEqualFitness when y is constant (R^2 undefined)."""
    sstot = float(np.sum((y - y.mean()) ** 2))
    if sstot == 0.0:
        raise AllEqualFitness("response is constant; R^2 undefined")
    coef, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < A.shape[1]:
        raise RankDeficient(
            f"design matrix rank {rank} < {A.shape[1]} columns")
    ssres = float(np.sum((y - A @ coef) ** 2))
    r2 = 1.0 - ssres / sstot
    return min(1.0, max(0.0, r2)), coef


def meta_model_r2(sample: SampleSet) -> float:
    """R^2 of the full quadratic model (intercept, linear and squared
    terms, no interactions) fitted to the sample by least squares.

    A constant response makes R^2 undefined; the convention here is to
    report 1.0 (the constant model is exact) and warn ConstantResponse."""
    n, d = sample.n, sample.dim
    if n <= 1 + 2 * d:
        raise ValueError("need more points than quadratic model terms")
    A = np.hstack([np.ones((n, 1)), sample.X, sample.X ** 2])
    try:
        r2, _ = _lstsq_r2(A, sample.y)
    except AllEqualFitness:
        warnings.warn("constant response; reporting R^2 = 1.0",
                      ConstantResponse)
        return 1.0
    return r2


def _nearest_distances(D: np.ndarray, y: np.ndarray):
    """Nearest-neighbour distance per point and nearest-strictly-better
    distance for every point that has a strictly better neighbour."""
    work = D.copy()
    np.fill_diagonal(work, np.inf)
    nn = work.min(axis=1)
    # Entry (i, j) stays only where point j is strictly better than point i.
    np.copyto(work, np.inf, where=y[None, :] >= y[:, None])
    nb_all = work.min(axis=1)
    nb = nb_all[np.isfinite(nb_all)]
    return nn, nb


def nearest_better_ratio(sample: SampleSet) -> float:
    """Mean nearest-neighbour distance divided by mean distance to the
    nearest strictly better point (points with no better point drop out
    of the denominator)."""
    if sample.n < 3:
        raise ValueError("need at least 3 points")
    if np.all(sample.y == sample.y[0]):
        raise AllEqualFitness("all fitness values equal")
    nn, nb = _nearest_distances(np.sqrt(_squared_distances(sample.X)), sample.y)
    return float(nn.mean() / nb.mean())


def _entropy_nat(y: np.ndarray) -> float:
    counts, _ = np.histogram(y, bins=20, range=(y.min(), y.max()))
    p = counts[counts > 0] / len(y)
    return float(-(p * np.log(p)).sum())


def _information_content(D: np.ndarray, y: np.ndarray, start: int):
    """Greedy nearest-neighbour tour statistics.

    Returns (h_max, eps_max, m0, eps_settle, settled) where the entropies
    are base-6 symbol-pair entropies over the tour's slope signs."""
    n = len(y)
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=int)
    cur = start
    for i in range(n):
        order[i] = cur
        visited[cur] = True
        if i + 1 < n:
            row = np.where(visited, np.inf, D[cur])
            cur = int(np.argmin(row))  # argmin takes the lowest index on ties
    dy = np.diff(y[order])
    dd = D[order[:-1], order[1:]]
    slopes = np.divide(dy, dd, out=np.zeros_like(dy), where=dd > 0)

    h_by_eps = []
    for eps in _IC_EPSILONS:
        s = np.zeros(len(slopes), dtype=int)
        s[slopes > eps] = 1
        s[slopes < -eps] = -1
        a, b = s[:-1], s[1:]
        neq = a != b
        if not neq.any():
            h_by_eps.append(0.0)
            continue
        # Six ordered unequal symbol pairs; probabilities over all pairs.
        pair_code = (a + 1) * 3 + (b + 1)
        counts = np.bincount(pair_code[neq], minlength=9)
        p = counts[counts > 0] / len(a)
        h_by_eps.append(float(-(p * (np.log(p) / np.log(6.0))).sum()))

    i_max = int(np.argmax(h_by_eps))
    h_max = h_by_eps[i_max]
    eps_max = _IC_EPSILONS[i_max]

    s0 = np.sign(slopes).astype(int)
    nz = s0[s0 != 0]
    m0 = 0.0
    if len(nz):
        changes = 1 + int(np.count_nonzero(nz[1:] != nz[:-1]))
        m0 = changes / len(slopes)

    settled = False
    eps_settle = _IC_SETTLE_FALLBACK
    for eps, h in zip(_IC_EPSILONS, h_by_eps):
        if h < _IC_SETTLE:
            eps_settle = eps
            settled = True
            break
    return h_max, eps_max, m0, eps_settle, settled


def _pca_counts(M: np.ndarray) -> tuple[float, float]:
    """(fraction of components covering 90% variance, first-component
    variance share); (1, 1) for an all-constant matrix."""
    C = M - M.mean(axis=0)
    s = np.linalg.svd(C, compute_uv=False)
    var = s ** 2
    total = float(var.sum())
    if total == 0.0:
        return 1.0, 1.0
    cum = np.cumsum(var) / total
    k = int(np.searchsorted(cum, 0.9 - 1e-15) + 1)
    return k / M.shape[1], float(var[0] / total)


def compute_features(sample: SampleSet, feature_seed: int = 0) -> FeatureVector:
    n, d = sample.n, sample.dim
    if n < 2 * d + 2:
        raise ValueError("need n >= 2d + 2 points to compute features")
    X, y = sample.X, sample.y
    values: dict[str, float] = {}
    degenerate: list[str] = []

    def put(name: str, value: float, *, flag: bool = False):
        values[name] = float(value)
        if flag:
            degenerate.append(name)

    # --- basic ---------------------------------------------------------
    y_sd = float(y.std())
    constant_y = y_sd == 0.0
    put("basic.dim", d)
    put("basic.n_obs", n)
    put("basic.y_min", y.min())
    put("basic.y_max", y.max())
    put("basic.y_mean", y.mean())
    put("basic.y_sd", y_sd)

    # --- y-distribution -------------------------------------------------
    if constant_y:
        put("ydist.skewness", 0.0, flag=True)
        put("ydist.kurtosis", 0.0, flag=True)
        put("ydist.entropy", 0.0, flag=True)
    else:
        c = y - y.mean()
        m2 = float(np.mean(c ** 2))
        put("ydist.skewness", float(np.mean(c ** 3)) / m2 ** 1.5)
        put("ydist.kurtosis", float(np.mean(c ** 4)) / m2 ** 2 - 3.0)
        put("ydist.entropy", _entropy_nat(y))

    # --- meta-model ------------------------------------------------------
    lin = np.hstack([np.ones((n, 1)), X])
    quad = np.hstack([lin, X ** 2])
    try:
        lin_r2, lin_coef = _lstsq_r2(lin, y)
        beta = np.abs(lin_coef[1:])
        lin_vals = (lin_r2, float(beta.min()), float(beta.max()))
        lin_flag = False
    except (AllEqualFitness, RankDeficient):
        lin_vals, lin_flag = (1.0, 0.0, 0.0), True
    try:
        quad_r2, quad_coef = _lstsq_r2(quad, y)
        gamma = np.abs(quad_coef[1 + d:])
        if gamma.min() == 0.0:
            quad_cond, flag_cond = 1.0, True
        else:
            quad_cond, flag_cond = float(gamma.max() / gamma.min()), False
        flag_r2 = False
    except (AllEqualFitness, RankDeficient):
        quad_r2, quad_cond = 1.0, 1.0
        flag_r2 = flag_cond = True
    put("meta.lin_r2", lin_vals[0], flag=lin_flag)
    put("meta.quad_r2", quad_r2, flag=flag_r2)
    put("meta.lin_coef_min", lin_vals[1], flag=lin_flag)
    put("meta.lin_coef_max", lin_vals[2], flag=lin_flag)
    put("meta.quad_cond", quad_cond, flag=flag_cond)

    # --- dispersion ------------------------------------------------------
    D = np.sqrt(_squared_distances(X))
    mean_all = float(D.take(_upper_pairs(n)).mean())
    rank_order = np.argsort(y, kind="stable")
    for p in _DISP_QUANTILES:
        name = f"disp.ratio_{int(round(p * 100)):02d}"
        if mean_all == 0.0:
            put(name, 1.0, flag=True)
            continue
        k = max(2, math.ceil(p * n))
        best = rank_order[:k]
        sub = D[np.ix_(best, best)]
        put(name, float(sub.take(_upper_pairs(k)).mean()) / mean_all)

    # --- level sets ------------------------------------------------------
    for q in _LEVEL_QUANTILES:
        name = f"level.mmce_{int(round(q * 100)):02d}"
        thr = float(np.quantile(y, q))
        low = y <= thr
        if low.all() or not low.any():
            put(name, 0.0, flag=True)
            continue
        c_low = X[low].mean(axis=0)
        c_high = X[~low].mean(axis=0)
        d_low = np.einsum("ij,ij->i", X - c_low, X - c_low)
        d_high = np.einsum("ij,ij->i", X - c_high, X - c_high)
        pred_low = d_low <= d_high  # ties go to the low-fitness class
        put(name, float(np.mean(pred_low != low)))

    # --- nearest-better --------------------------------------------------
    if constant_y:
        put("nbc.ratio", 1.0, flag=True)
        put("nbc.sd_ratio", 1.0, flag=True)
        put("nbc.cor_nn_y", 0.0, flag=True)
    else:
        nn, nb = _nearest_distances(D, y)
        put("nbc.ratio", float(nn.mean() / nb.mean()))
        nn_sd = float(nn.std())
        if nn_sd == 0.0:
            put("nbc.sd_ratio", 1.0, flag=True)
        else:
            put("nbc.sd_ratio", float(nb.std()) / nn_sd)
        if nn_sd == 0.0:
            put("nbc.cor_nn_y", 0.0, flag=True)
        else:
            put("nbc.cor_nn_y", float(np.corrcoef(nn, y)[0, 1]))

    # --- information content ---------------------------------------------
    rng = rng_for(NS_FEATURES, feature_seed)
    start = int(rng.integers(n))
    h_max, eps_max, m0, eps_settle, settled = _information_content(D, y, start)
    put("ic.h_max", h_max)
    put("ic.eps_max", eps_max)
    put("ic.m0", m0)
    put("ic.eps_settle", eps_settle, flag=not settled)

    # --- principal components ---------------------------------------------
    expl_x, first_share = _pca_counts(X)
    expl_xy, _ = _pca_counts(np.hstack([X, y[:, None]]))
    x_const = bool(np.all(X == X[0]))
    put("pca.expl_x_90", expl_x, flag=x_const)
    put("pca.expl_xy_90", expl_xy, flag=x_const and constant_y)
    put("pca.first_pc_share", first_share, flag=x_const)

    return FeatureVector(values=values, degenerate=tuple(degenerate))


def normalize_features(rows: list[FeatureVector]) -> tuple[np.ndarray, list[str]]:
    """Stack feature vectors, drop exactly-constant columns, z-score the
    rest (population standard deviation)."""
    if len(rows) < 2:
        raise TooFewRows("need at least 2 feature vectors")
    M = np.stack([r.as_array() for r in rows])
    keep = [j for j in range(M.shape[1]) if M[:, j].min() != M[:, j].max()]
    Z = M[:, keep]
    Z = (Z - Z.mean(axis=0)) / Z.std(axis=0)
    return Z, [FEATURE_NAMES[j] for j in keep]
