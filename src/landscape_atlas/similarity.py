"""Problem-similarity mapping: exact t-SNE over normalized feature rows.

Exact (quadratic-cost) t-SNE, suitable for corpora of a few hundred
rows: per-point Gaussian bandwidths found by bisection to the target
perplexity, early exaggeration, and a momentum + per-coordinate-gain
gradient descent.  Initial coordinates are derived from a seeded hash of
each row's contents, so identical rows start identical and permuting the
input permutes the output.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .ela.features import _constant, _squared_distances
from .errors import DegenerateInput, PerplexityTooLarge, TraceDisabled

DEFAULT_PERPLEXITY = 30.0
DEFAULT_ITERATIONS = 1000
LEARNING_RATE = 200.0
EXAGGERATION = 12.0
EXAGGERATION_ITERS = 250
MOMENTUM_SWITCH = 250
TRACE_EVERY = 50
_P_FLOOR = 1e-12
_BANDWIDTH_TOL = 1e-4
_BANDWIDTH_MAX_ITER = 200
_LN2 = np.log(2.0)


@dataclass(frozen=True)
class EmbeddingRow:
    suite: str
    problem: str
    instance: int
    u: float
    v: float


@dataclass(frozen=True)
class Embedding:
    rows: tuple[EmbeddingRow, ...]
    final_kl: float
    kl_checkpoints: tuple[tuple[int, float], ...] | None = None

    def __post_init__(self):
        if not (np.isfinite(self.final_kl) and self.final_kl >= 0.0):
            raise ValueError("final KL divergence must be finite and >= 0")

    @property
    def coordinates(self) -> np.ndarray:
        return np.array([[r.u, r.v] for r in self.rows])


def kl_trace(embedding: Embedding) -> tuple[tuple[int, float], ...]:
    """(iteration, KL) checkpoints recorded every 50 iterations."""
    if embedding.kl_checkpoints is None:
        raise TraceDisabled("embedding was run without trace recording")
    return embedding.kl_checkpoints


def _conditional_rows(shifted: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """p_{j|i} for each row of shifted at its bandwidth beta[i]; a row holds
    the squared distances to the other points less the smallest of them."""
    e = np.exp(-beta[:, None] * shifted)
    return e / e.sum(axis=1, keepdims=True)


def _perplexities(P: np.ndarray) -> np.ndarray:
    """2 ** (entropy in bits) of each row of P.  A row's entropy sums its
    positive probabilities in row order: a row that holds an underflowed 0
    (or a NaN) is summed compacted, as padding it with zeros changes the
    pairwise sum's bits."""
    full = (P > 0.0).all(axis=1)
    h = np.empty(len(P))
    h[full] = (P[full] * (np.log(P[full]) / _LN2)).sum(axis=1)
    for i in np.flatnonzero(~full):
        nz = P[i][P[i] > 0.0]
        h[i] = (nz * (np.log(nz) / _LN2)).sum()
    # Python's float power: numpy's vectorised power rounds some of these
    # differently, which can move a row's bracket
    return np.array([2.0 ** -bits for bits in h.tolist()])


def _bisect(shifted: np.ndarray, perplexity: float
            ) -> tuple[np.ndarray, np.ndarray]:
    """Bisect every row's bandwidth at once, each row in its own bracket:
    (beta, conditional probabilities) per row of shifted.  A step
    recomputes only the rows whose perplexity is further than
    _BANDWIDTH_TOL from the target; a row stops there, or at its
    _BANDWIDTH_MAX_ITER-th step with the probabilities of its last beta."""
    rows = len(shifted)
    beta, lo, hi = np.ones(rows), np.zeros(rows), np.full(rows, np.inf)
    P = _conditional_rows(shifted, beta)
    live = np.arange(rows)
    for _ in range(_BANDWIDTH_MAX_ITER):
        perp = _perplexities(P[live])
        miss = np.abs(perp - perplexity) > _BANDWIDTH_TOL
        live, perp = live[miss], perp[miss]
        if not len(live):
            break
        b, l, h = beta[live], lo[live], hi[live]
        flat = perp > perplexity  # too flat: tighten the kernel
        l = np.where(flat, b, l)
        h = np.where(flat, h, b)
        mid = (l + h) / 2.0
        beta[live] = np.where(flat, np.where(np.isinf(h), b * 2.0, mid),
                              np.where(l == 0.0, b / 2.0, mid))
        lo[live], hi[live] = l, h
        P[live] = _conditional_rows(shifted[live], beta[live])
    return beta, P


def bandwidth_bisection(d2_row: np.ndarray, perplexity: float
                        ) -> tuple[float, np.ndarray]:
    """Find beta so the conditional distribution's perplexity matches the
    target within _BANDWIDTH_TOL, in at most _BANDWIDTH_MAX_ITER steps;
    returns (beta, conditional probabilities), a batch of one of the
    bisection that ``tsne_embed`` runs over all rows.  A target below 1 or
    above the neighbour count is refused: no distribution over
    len(d2_row) points has that perplexity."""
    if not 1.0 <= perplexity <= len(d2_row):
        raise ValueError(f"perplexity {perplexity} is unreachable: need "
                         f"1 <= perplexity <= {len(d2_row)} neighbours")
    shifted = d2_row - d2_row.min()  # nearest neighbour contributes exp(0)
    beta, P = _bisect(shifted[None, :], perplexity)
    return float(beta[0]), P[0]


def _affinities(X: np.ndarray, perplexity: float) -> np.ndarray:
    n = X.shape[0]
    d2 = _squared_distances(X)
    off = ~np.eye(n, dtype=bool)
    d2 = d2[off].reshape(n, n - 1)  # each row without its own point
    _, P_cond = _bisect(d2 - d2.min(axis=1, keepdims=True), perplexity)
    P = np.zeros((n, n))
    P[off] = P_cond.ravel()
    P = (P + P.T) / (2.0 * n)
    return np.maximum(P, _P_FLOOR)


def _kl_divergence(p: np.ndarray, Q: np.ndarray, off: np.ndarray) -> float:
    """KL(P || Q) over the off-diagonal pairs; p is P[off]."""
    q = Q[off]
    return float(np.sum(p * np.log(p / q)))


def _low_dim_q(Y: np.ndarray, num: np.ndarray, Q: np.ndarray) -> None:
    """Fill num with the Student-t kernel 1 / (1 + |y_i - y_j|^2) of the
    layout Y, zero on the diagonal, and Q with its normalised form."""
    _squared_distances(Y, out=num)
    np.add(num, 1.0, out=num)
    np.divide(1.0, num, out=num)
    np.fill_diagonal(num, 0.0)
    np.divide(num, num.sum(), out=Q)
    np.maximum(Q, _P_FLOOR, out=Q)


def _hash_init(X: np.ndarray, embed_seed: int) -> np.ndarray:
    """Per-row N(0, 1e-4) coordinates seeded by the row's contents, so
    initialization is invariant to row order."""
    Y = np.empty((X.shape[0], 2))
    for i, row in enumerate(X):
        digest = hashlib.sha256(
            embed_seed.to_bytes(8, "little", signed=True)
            + np.ascontiguousarray(row, dtype=np.float64).tobytes()
        ).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:16], "little"))
        Y[i] = rng.standard_normal(2) * 1e-2
    return Y


def tsne_embed(matrix: np.ndarray,
               ids: list[tuple[str, str, int]] | None = None,
               perplexity: float = DEFAULT_PERPLEXITY,
               embed_seed: int = 0,
               iterations: int = DEFAULT_ITERATIONS,
               trace: bool = True) -> Embedding:
    X = np.asarray(matrix, dtype=float)
    if X.ndim != 2 or X.shape[0] < 4:
        raise ValueError("need a 2-D matrix with at least 4 rows")
    if not np.isfinite(X).all():
        raise ValueError("the matrix must be finite")
    # No distribution has perplexity below 1: the bisection cannot reach it.
    if not (np.isfinite(perplexity) and perplexity >= 1.0):
        raise ValueError(f"need a finite perplexity >= 1, got {perplexity}")
    if iterations < 1:
        raise ValueError(f"need iterations >= 1, got {iterations}")
    n = X.shape[0]
    if not perplexity < (n - 1) / 3.0:
        raise PerplexityTooLarge(
            f"perplexity {perplexity} must be < (rows - 1)/3 = {(n - 1) / 3:.2f}")
    if _constant(X):
        raise DegenerateInput("all feature rows are identical")
    if ids is None:
        ids = [("", str(i), 0) for i in range(n)]
    if len(ids) != n:
        raise ValueError("need one id triple per matrix row")

    P = _affinities(X, perplexity)
    P_run = P * EXAGGERATION
    off = ~np.eye(n, dtype=bool)
    p_off = P[off]
    Y = _hash_init(X, embed_seed)
    velocity = np.zeros_like(Y)
    gains = np.ones_like(Y)
    checkpoints: list[tuple[int, float]] = []

    # The descent's n x n buffers, filled in place at every iteration.  Q
    # and num belong to the current layout and are read by the next
    # gradient, a checkpoint or the final KL.
    num, Q, W = np.empty((n, n)), np.empty((n, n)), np.empty((n, n))
    _low_dim_q(Y, num, Q)
    for it in range(1, iterations + 1):
        if it == EXAGGERATION_ITERS + 1:
            P_run = P
        np.subtract(P_run, Q, out=W)
        np.multiply(W, num, out=W)
        # W becomes diag(W.sum(1)) - W; 0.0 - w keeps the +0.0 that -w
        # would turn into -0.0.
        diagonal = W.sum(axis=1)
        diagonal -= W.diagonal()
        np.subtract(0.0, W, out=W)
        np.fill_diagonal(W, diagonal)
        grad = W @ Y
        grad *= 4.0

        same_sign = np.sign(grad) == np.sign(velocity)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        np.maximum(gains, 0.01, out=gains)
        momentum = 0.5 if it <= MOMENTUM_SWITCH else 0.8
        velocity *= momentum
        grad *= gains
        grad *= LEARNING_RATE
        velocity -= grad
        Y += velocity
        Y -= Y.mean(axis=0)
        _low_dim_q(Y, num, Q)
        if trace and it % TRACE_EVERY == 0:
            checkpoints.append((it, _kl_divergence(p_off, Q, off)))

    rows = tuple(
        EmbeddingRow(suite=s, problem=p, instance=int(k),
                     u=float(Y[i, 0]), v=float(Y[i, 1]))
        for i, (s, p, k) in enumerate(ids)
    )
    return Embedding(
        rows=rows,
        final_kl=_kl_divergence(p_off, Q, off),
        kl_checkpoints=tuple(checkpoints) if trace else None,
    )
