"""Random-forest classifier: seeded, Gini-split, JSON-serializable trees.

Trees are stored as parallel arrays.  ``feature[i] == -1`` marks a leaf;
leaves carry per-class counts, internal nodes carry a threshold and the
indices of their children.  Test points with ``x[feature] <= threshold``
descend left.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._seeds import NS_FOREST, rng_for


@dataclass(frozen=True)
class Tree:
    feature: tuple[int, ...]
    threshold: tuple[float, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    counts: tuple[tuple[int, ...], ...]

    def to_dict(self) -> dict:
        return {
            "feature": list(self.feature),
            "threshold": list(self.threshold),
            "left": list(self.left),
            "right": list(self.right),
            "counts": [list(c) for c in self.counts],
        }

    @staticmethod
    def from_dict(d: dict, n_features: int, n_classes: int) -> "Tree":
        """The tree d describes; ValueError unless grow_tree could have
        written it: equal-length node arrays, internal nodes that split one
        of n_features features into two later nodes (so every descent ends),
        and leaves that count each of n_classes classes."""
        tree = Tree(
            feature=tuple(int(f) for f in d["feature"]),
            threshold=tuple(float(t) for t in d["threshold"]),
            left=tuple(int(i) for i in d["left"]),
            right=tuple(int(i) for i in d["right"]),
            counts=tuple(tuple(int(k) for k in c) for c in d["counts"]),
        )
        n = len(tree.feature)
        if n == 0 or {len(tree.threshold), len(tree.left), len(tree.right),
                      len(tree.counts)} != {n}:
            raise ValueError("tree node arrays need one equal, non-zero length")
        for i, (f, lo, hi, c) in enumerate(zip(tree.feature, tree.left,
                                               tree.right, tree.counts)):
            if f == -1 and len(c) != n_classes:
                raise ValueError(f"leaf {i} needs {n_classes} class counts")
            if f != -1 and not (0 <= f < n_features and i < lo < n
                                and i < hi < n):
                raise ValueError(f"node {i} must split one of {n_features} "
                                 f"features into two later nodes")
        return tree


def _best_split(V: np.ndarray, onehot: np.ndarray):
    """Lowest weighted-Gini axis split among k candidate features.

    Row j of ``V`` holds the node's values of candidate j in ascending
    order, and ``onehot[j]`` their one-hot labels.  Returns (j, threshold)
    or None when every candidate is constant on the node.  Ties keep the
    earliest candidate and the lowest cut position, so the result is
    deterministic.  The Gini arithmetic is kept term for term: a rewrite
    changes the rounding and can flip a near-tie."""
    m = V.shape[1]
    cum = np.cumsum(onehot, axis=1)
    left = cum[:, :-1]
    right = cum[:, -1:] - left
    nl = np.arange(1, m, dtype=float)
    nr = m - nl
    gl = 1.0 - ((left / nl[:, None]) ** 2).sum(axis=2)
    gr = 1.0 - ((right / nr[:, None]) ** 2).sum(axis=2)
    g = (nl * gl + nr * gr) / m
    g[V[:, 1:] == V[:, :-1]] = math.inf
    j, i = divmod(int(g.argmin()), m - 1)
    if g[j, i] == math.inf:
        return None
    return j, float((V[j, i] + V[j, i + 1]) / 2.0)


def grow_tree(X: np.ndarray, y: np.ndarray, n_classes: int,
              rng: np.random.Generator) -> Tree:
    """One CART tree on a bootstrap resample of (X, y); no depth limit,
    leaf minimum 1, per-split feature subset of size ceil(sqrt(F)).

    The sample is sorted once per feature: row f of a node's index matrix
    lists the node's sample positions in ascending order of feature f, and
    a split partitions every row stably, so no node sorts again."""
    n, F = X.shape
    k = math.ceil(math.sqrt(F))
    boot = rng.integers(0, n, size=n)
    XT = np.ascontiguousarray(X[boot].T)
    yb = y[boot]
    onehot = np.eye(n_classes, dtype=np.int64)[yb]

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[tuple[int, ...]] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append(())
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.argsort(XT, axis=1, kind="stable"))]
    while stack:
        node, S = stack.pop()
        dist = np.bincount(yb[S[0]], minlength=n_classes)
        split = None  # a node of fewer than two rows is pure
        if np.count_nonzero(dist) > 1:
            sub = rng.permutation(F)[:k]
            Ss = S[sub]
            split = _best_split(XT[sub[:, None], Ss], onehot.take(Ss, axis=0))
        if split is None:
            counts[node] = tuple(dist.tolist())
            continue
        j, thr = split
        f = int(sub[j])
        go_left = (XT[f] <= thr)[S]
        feature[node] = f
        threshold[node] = thr
        cl = new_node()
        cr = new_node()
        left[node] = cl
        right[node] = cr
        # push right first so the left child is processed (and numbered) next
        stack.append((cr, S[~go_left].reshape(F, -1)))
        stack.append((cl, S[go_left].reshape(F, -1)))

    return Tree(tuple(feature), tuple(threshold), tuple(left), tuple(right),
                tuple(counts))


def grow_forest(X: np.ndarray, y: np.ndarray, n_classes: int,
                train_seed: int, n_trees: int) -> tuple[Tree, ...]:
    return tuple(
        grow_tree(X, y, n_classes, rng_for(NS_FOREST, train_seed, t))
        for t in range(n_trees)
    )


def forest_votes(trees: tuple[Tree, ...], X: np.ndarray,
                 n_classes: int) -> np.ndarray:
    """Per-class vote shares for each row of X: each tree votes its leaf's
    majority class (lowest class index on count ties); every row's shares
    sum to 1.

    The trees are stacked into flat node arrays in which a leaf is its own
    child, and all (row, tree) pairs descend together, one level a step."""
    sizes = [len(t.feature) for t in trees]
    roots = np.cumsum([0] + sizes[:-1])
    offset = np.repeat(roots, sizes)

    def flat(field: str) -> np.ndarray:
        return np.array([v for t in trees for v in getattr(t, field)])

    feature = flat("feature")
    leaf = feature < 0
    node_ids = np.arange(len(feature))
    left = np.where(leaf, node_ids, flat("left") + offset)
    right = np.where(leaf, node_ids, flat("right") + offset)
    threshold = flat("threshold")
    feature[leaf] = 0
    label = np.zeros(len(feature), dtype=int)
    label[leaf] = np.argmax([c for t in trees for c in t.counts if c], axis=1)

    rows = np.arange(len(X))[:, None]
    node = np.broadcast_to(roots, (len(X), len(trees)))
    while not leaf[node].all():
        node = np.where(X[rows, feature[node]] <= threshold[node],
                        left[node], right[node])
    votes = np.count_nonzero(label[node][:, :, None] == np.arange(n_classes),
                             axis=1)
    return votes / len(trees)
