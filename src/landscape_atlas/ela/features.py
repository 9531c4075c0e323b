"""Exploratory landscape features computed from a sampled design.

Every feature is a finite float; inputs that would make a feature
undefined are mapped to a fixed fallback value and the feature name is
recorded on the vector's ``degenerate`` list instead of raising.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .._seeds import NS_FEATURES, rng_for
from ..errors import TooFewRows
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
_CANDIDATES = 16


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


def _squared_distances(X: np.ndarray, out: np.ndarray | None = None
                       ) -> np.ndarray:
    """Squared Euclidean distances between the rows of X, written into
    ``out`` (an n x n float64 buffer) when given; t-SNE reuses one buffer
    for every iteration of its descent."""
    sq = np.einsum("ij,ij->i", X, X)
    if out is None:
        out = np.empty((len(X), len(X)))
    # sq[j] + sq[i] in two passes: the same bits as the broadcast
    # sq[:, None] + sq[None, :], which costs more than both together.
    out[:] = sq
    np.add(out, sq[:, None], out=out)
    gram = X @ X.T
    gram *= 2.0
    np.subtract(out, gram, out=out)
    np.maximum(out, 0.0, out=out)
    np.fill_diagonal(out, 0.0)
    return out


def _upper_mean(block: np.ndarray) -> float:
    """Mean of a square block's strict upper triangle (~np.tri), its
    entries summed row by row, in np.triu_indices(k, 1) order."""
    return float(block[~np.tri(len(block), dtype=bool)].mean())


def _constant(a: np.ndarray) -> bool:
    """Every entry (every row, for a design) equals the first, exactly."""
    return bool(np.all(a == a[0]))


def _sstot(y: np.ndarray) -> float:
    """Sum of squared deviations from the mean, the divisor of R^2 and of a
    correlation with y.  It underflows to 0 for a response that is not
    constant when every deviation is below about 1.5e-162."""
    return float(np.sum((y - y.mean()) ** 2))


def _lstsq_r2(A: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray] | None:
    """R^2 of the least-squares fit y ~ A, plus the coefficient vector,
    for a response y whose sstot is above 0; None when A has linearly
    dependent columns."""
    coef, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < A.shape[1]:
        return None
    sstot = _sstot(y)
    ssres = float(np.sum((y - A @ coef) ** 2))
    return min(1.0, max(0.0, 1.0 - ssres / sstot)), coef


def _pca_counts(M: np.ndarray) -> tuple[float, float]:
    """(fraction of components covering 90% variance, first-component
    variance share) of a matrix whose rows are not all equal."""
    C = M - M.mean(axis=0)
    s = np.linalg.svd(C, compute_uv=False)
    var = s ** 2
    total = float(var.sum())
    cum = np.cumsum(var) / total
    k = int(np.searchsorted(cum, 0.9 - 1e-15) + 1)
    return k / M.shape[1], float(var[0] / total)


class _Design:
    """The terms of a feature battery that read the design X alone.

    ``D`` holds the Euclidean distances with an ``inf`` diagonal; rows that
    are exactly equal lie at distance 0 (the Gram form leaves rounding
    noise there), so a constant design has every distance 0.  ``nn`` is
    each point's nearest-neighbour distance, with its mean ``nn_mean`` and
    population standard deviation ``nn_sd``, and ``mean_all`` the mean
    distance over all pairs, the _upper_mean of D.  ``quad`` is the
    quadratic model's design of X: intercept, linear and squared columns,
    no interactions; the linear model's design is its first 1 + d columns.
    ``pca_x`` is the X-only principal-component pair of _pca_counts, (1.0,
    1.0) for a constant design.  ``cand`` holds each row's k = min(16, n)
    nearest columns, in no order, and ``cand_d`` their distances: every
    column outside a row's table lies at least as far as the table's
    farthest entry.  Tours are kept per start, so at most n of them.  Every
    array is read-only."""

    def __init__(self, X: np.ndarray):
        n = len(X)
        self.constant = _constant(X)
        D = _squared_distances(X)
        np.sqrt(D, out=D)
        rows, inverse = np.unique(X, axis=0, return_inverse=True)
        if len(rows) < n:
            inverse = inverse.reshape(-1)
            D[inverse[:, None] == inverse[None, :]] = 0.0
        np.fill_diagonal(D, np.inf)
        self.mean_all = _upper_mean(D)
        self.nn = D.min(axis=1)
        self.nn_mean, self.nn_sd = float(self.nn.mean()), float(self.nn.std())
        self.D = D
        self.quad = np.hstack([np.ones((n, 1)), X, X ** 2])
        self.pca_x = (1.0, 1.0) if self.constant else _pca_counts(X)
        k = min(_CANDIDATES, n)
        # A copy: a view of the slice would keep the whole n x n index
        # array of argpartition alive in the memo.
        self.cand = np.argpartition(D, k - 1, axis=1)[:, :k].copy()
        self.cand_d = np.take_along_axis(D, self.cand, axis=1)
        for a in (D, self.nn, self.quad, self.cand, self.cand_d):
            a.flags.writeable = False
        self._tours: dict[int, np.ndarray] = {}

    def tour(self, start: int) -> np.ndarray:
        """Greedy nearest-neighbour tour from start: each step goes to the
        nearest unvisited point, the lowest index on ties."""
        order = self._tours.get(start)
        if order is None:
            n = len(self.D)
            visited = np.zeros(n, dtype=bool)
            order = np.empty(n, dtype=int)
            cur = start
            for i in range(n):
                order[i] = cur
                visited[cur] = True
                if i + 1 < n:
                    cur = int(np.argmin(np.where(visited, np.inf, self.D[cur])))
            order.flags.writeable = False
            self._tours[start] = order
        return order


@lru_cache(maxsize=1)
def _design_terms(shape: tuple[int, ...], data: bytes) -> _Design:
    return _Design(np.frombuffer(data).reshape(shape))


def _design(X: np.ndarray) -> _Design:
    """The X-only terms of a float design, from a memo that holds the last
    design read: callers read designs one after another, each under many
    responses.  It is keyed on the shape and bytes, so values never depend
    on its state; _design_terms.cache_clear() empties it."""
    return _design_terms(X.shape, X.tobytes())


def _nearest_distances(design: _Design, y: np.ndarray) -> np.ndarray:
    """Nearest-strictly-better distance for every point that has a
    strictly better neighbour, in row order (none for a constant response).
    The nearest-neighbour distances are ``design.nn``.

    A row with a strictly better point among its candidates takes the
    nearest of those: no column outside the table lies nearer.  Only a row
    with better points and none among its candidates reads its full row."""
    better = y[design.cand] < y[:, None]
    nb_all = np.where(better, design.cand_d, np.inf).min(axis=1)
    rest = np.flatnonzero(~better.any(axis=1) & (y > y.min()))
    if len(rest):
        nb_all[rest] = np.where(y[None, :] < y[rest, None], design.D[rest],
                                np.inf).min(axis=1)
    return nb_all[np.isfinite(nb_all)]


def _entropy_nat(y: np.ndarray) -> float:
    counts, _ = np.histogram(y, bins=20, range=(y.min(), y.max()))
    p = counts[counts > 0] / len(y)
    return float(-(p * np.log(p)).sum())


def _information_content(D: np.ndarray, y: np.ndarray, order: np.ndarray):
    """Statistics of the tour that visits the points in order.

    Returns (h_max, eps_max, m0, eps_settle, settled) where the entropies
    are base-6 symbol-pair entropies over the tour's slope signs."""
    dy = np.diff(y[order])
    dd = D[order[:-1], order[1:]]
    slopes = np.divide(dy, dd, out=np.zeros_like(dy), where=dd > 0)

    # One row of slope symbols (-1, 0, 1) per epsilon.
    eps = np.array(_IC_EPSILONS)[:, None]
    symbols = (slopes > eps).astype(int) - (slopes < -eps)
    h_by_eps = []
    for s in symbols:
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

    s0 = symbols[0]  # epsilon 0: the signs of the slopes
    nz = s0[s0 != 0]
    changes = 1 + int(np.count_nonzero(nz[1:] != nz[:-1]))
    m0 = changes / len(slopes) if len(nz) else 0.0

    settle = [eps for eps, h in zip(_IC_EPSILONS, h_by_eps) if h < _IC_SETTLE]
    eps_settle = settle[0] if settle else _IC_SETTLE_FALLBACK
    return h_max, eps_max, m0, eps_settle, bool(settle)


def compute_features(sample: SampleSet, feature_seed: int = 0) -> FeatureVector:
    """The FEATURE_NAMES of a sample of n >= 2d + 2 points (ValueError
    otherwise).  feature_seed only picks the information-content tour's
    start; every other feature depends on the sample alone.

    An undefined feature takes a fixed fallback and is named on
    ``degenerate``; it never raises.  Two facts are decided once, by exact
    equality: a constant response (every y equal) flags ydist.*, meta.*
    and level.*; a constant design (every row of X equal) flags meta.*,
    disp.* and pca.* (pca.expl_xy_90 only with a constant response).
    Underflow can leave a divisor 0 for a response that is not constant:
    ydist.* are flagged when m2 * m2 is 0 (m2 the mean squared deviation),
    meta.* and nbc.cor_nn_y when the sum of squared deviations is 0.  So are
    ydist.* when m2 * m2 or the mean fourth deviation overflows to inf; an
    overflowing y.std() raises ValueError.
    disp.* are flagged whenever every distance is 0, and nbc.* when no
    nearest-better distance is above 0: either fact, or better points only
    at duplicates.  README.md tabulates the fallbacks and the local rules.

    The terms that read X alone (distances, nearest-neighbour statistics,
    the candidate table, the quadratic design, the X-only principal
    components and the tours) come from the one-design memo of _design,
    so a run of calls on one design computes them once.  Per call, the
    nearest-better distances read the candidate table and fall back to a
    full distance row only where a row's better points all lie outside
    it."""
    n, d = sample.n, sample.dim
    if n < 2 * d + 2:
        raise ValueError("need n >= 2d + 2 points to compute features")
    X, y = sample.X, sample.y
    design = _design(X)
    const_y, const_x = _constant(y), design.constant
    values: dict[str, float] = {}
    degenerate: list[str] = []

    def put(name: str, value: float, *, flag: bool = False):
        values[name] = float(value)
        if flag:
            degenerate.append(name)

    # --- basic ---------------------------------------------------------
    put("basic.dim", d)
    put("basic.n_obs", n)
    put("basic.y_min", y.min())
    put("basic.y_max", y.max())
    put("basic.y_mean", y.mean())
    put("basic.y_sd", y.std())

    # --- y-distribution -------------------------------------------------
    c = y - y.mean()
    m2 = float(np.mean(c ** 2))
    with np.errstate(over="ignore"):
        m4 = float(np.mean(c ** 4))
    if const_y or not 0.0 < m2 * m2 < math.inf or m4 == math.inf:
        for name in ("ydist.skewness", "ydist.kurtosis", "ydist.entropy"):
            put(name, 0.0, flag=True)
    else:
        put("ydist.skewness", float(np.mean(c ** 3)) / m2 ** 1.5)
        put("ydist.kurtosis", m4 / m2 ** 2 - 3.0)
        put("ydist.entropy", _entropy_nat(y))

    # --- meta-model ------------------------------------------------------
    flat_y = const_y or _sstot(y) == 0.0
    quad = design.quad
    lin_fit = quad_fit = None
    if not (flat_y or const_x):
        lin_fit, quad_fit = _lstsq_r2(quad[:, :1 + d], y), _lstsq_r2(quad, y)
    beta = np.abs(lin_fit[1][1:]) if lin_fit else np.zeros(1)
    gamma = np.abs(quad_fit[1][1 + d:]) if quad_fit else np.zeros(1)
    put("meta.lin_r2", lin_fit[0] if lin_fit else 1.0, flag=not lin_fit)
    put("meta.quad_r2", quad_fit[0] if quad_fit else 1.0, flag=not quad_fit)
    put("meta.lin_coef_min", beta.min(), flag=not lin_fit)
    put("meta.lin_coef_max", beta.max(), flag=not lin_fit)
    no_cond = gamma.min() == 0.0
    put("meta.quad_cond", 1.0 if no_cond else gamma.max() / gamma.min(),
        flag=no_cond)

    # --- dispersion ------------------------------------------------------
    D, mean_all = design.D, design.mean_all
    rank_order = np.argsort(y, kind="stable")
    for p in _DISP_QUANTILES:
        name = f"disp.ratio_{int(round(p * 100)):02d}"
        if mean_all == 0.0:
            put(name, 1.0, flag=True)
            continue
        k = max(2, math.ceil(p * n))
        best = rank_order[:k]
        put(name, _upper_mean(D[np.ix_(best, best)]) / mean_all)

    # --- level sets ------------------------------------------------------
    for q, thr in zip(_LEVEL_QUANTILES, np.quantile(y, _LEVEL_QUANTILES)):
        name = f"level.mmce_{int(round(q * 100)):02d}"
        low = y <= thr
        if low.all() or not low.any():
            put(name, 0.0, flag=True)
            continue
        dev_low = X - X[low].mean(axis=0)
        dev_high = X - X[~low].mean(axis=0)
        d_low = np.einsum("ij,ij->i", dev_low, dev_low)
        d_high = np.einsum("ij,ij->i", dev_high, dev_high)
        pred_low = d_low <= d_high  # ties go to the low-fitness class
        put(name, float(np.mean(pred_low != low)))

    # --- nearest-better --------------------------------------------------
    nb = _nearest_distances(design, y)
    nn_sd = design.nn_sd
    no_nb = not nb.any()
    put("nbc.ratio", 1.0 if no_nb else float(design.nn_mean / nb.mean()),
        flag=no_nb)
    if no_nb or nn_sd == 0.0:
        put("nbc.sd_ratio", 1.0, flag=True)
        put("nbc.cor_nn_y", 0.0, flag=True)
    else:
        put("nbc.sd_ratio", float(nb.std()) / nn_sd)
        put("nbc.cor_nn_y", 0.0 if flat_y else np.corrcoef(design.nn, y)[0, 1],
            flag=flat_y)

    # --- information content ---------------------------------------------
    start = int(rng_for(NS_FEATURES, feature_seed).integers(n))
    h_max, eps_max, m0, eps_settle, settled = _information_content(
        D, y, design.tour(start))
    put("ic.h_max", h_max)
    put("ic.eps_max", eps_max)
    put("ic.m0", m0)
    put("ic.eps_settle", eps_settle, flag=not settled)

    # --- principal components ---------------------------------------------
    expl_x, first_share = design.pca_x
    expl_xy = 1.0 if const_x and const_y else \
        _pca_counts(np.hstack([X, y[:, None]]))[0]
    put("pca.expl_x_90", expl_x, flag=const_x)
    put("pca.expl_xy_90", expl_xy, flag=const_x and const_y)
    put("pca.first_pc_share", first_share, flag=const_x)

    return FeatureVector(values=values, degenerate=tuple(degenerate))


def normalize_features(rows: list[FeatureVector]) -> tuple[np.ndarray, list[str]]:
    """Stack feature vectors, drop exactly-constant columns, z-score the
    rest (population standard deviation)."""
    if len(rows) < 2:
        raise TooFewRows("need at least 2 feature vectors")
    M = np.stack([r.as_array() for r in rows])
    keep = [j for j in range(M.shape[1]) if not _constant(M[:, j])]
    Z = M[:, keep]
    Z = (Z - Z.mean(axis=0)) / Z.std(axis=0)
    return Z, [FEATURE_NAMES[j] for j in keep]
