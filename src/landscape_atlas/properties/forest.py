"""Random-forest classifier: seeded, Gini-split trees, which the model file
of ``models`` writes and reads.

Trees are stored as parallel arrays.  ``feature[i] == -1`` marks a leaf;
leaves carry per-class counts, internal nodes carry a threshold and the
indices of their children.  Test points with ``x[feature] <= threshold``
descend left.

``_grow`` grows a group of trees in lockstep, one node of every tree a
step, and each tree keeps its own stream and depth-first order: a tree is
the same alone or in a group (``grow_forest``).  Of groups of 25, 50 and
100 trees, 50 grew the atlas LOFO-CV fastest (``_GROUP_TREES``).
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


#: Trees that one ``_grow`` call grows together.  A step's temporaries
#: hold at most _GROUP_TREES * n * ceil(sqrt(F)) entries per class.  One
#: atlas LOFO-CV pair (separability at 200 trees, then 25 trees on permuted
#: labels; 2-core VM, numpy 2.4.6) took 1.149 s at a traced peak of
#: 2.56 MB in 25-tree groups, 0.998 s and 3.72 MB in 50-tree groups, and
#: 1.016 s and 6.51 MB in 100-tree groups.
_GROUP_TREES = 50


def _argsort(keys: np.ndarray, top: int) -> np.ndarray:
    """Argsort of the flattened non-negative integer keys, all below top.
    Keys that fit 8 or 16 bits are radix-sorted, stably; wider keys get
    numpy's default sort, which does not keep the order of equal keys."""
    for dtype, size in ((np.uint8, 2 ** 8), (np.uint16, 2 ** 16)):
        if top <= size:
            return np.argsort(keys.astype(dtype), axis=None, kind="stable")
    return np.argsort(keys, axis=None)


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Rank of each entry of X among the distinct values of its column;
    equal values, -0.0 and 0.0 included, share a rank."""
    order = np.argsort(X, axis=0, kind="stable")
    Xs = np.take_along_axis(X, order, axis=0)
    rises = np.vstack([Xs[:1] != Xs[:1], Xs[1:] != Xs[:-1]])
    ranks = np.empty(X.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.cumsum(rises, axis=0), axis=0)
    return ranks


def _class_sum(a: np.ndarray) -> np.ndarray:
    # numpy adds a contiguous class axis left to right below 8 classes, as
    # an axis-0 sum of a class-first array does, but pairwise from 8
    return a.sum(axis=0) if len(a) < 8 else np.ascontiguousarray(a.T).sum(1)


def _gini(labels: np.ndarray, seglen: np.ndarray,
          n_classes: int) -> np.ndarray:
    """Weighted Gini of the cut after each entry of consecutive segments of
    ``labels`` (inf after a segment's last entry).  A cut of a segment of m
    rows leaves nl rows with class counts l on its left and nr rows with
    counts r on its right, and scores (nl * (1 - sum (l / nl)^2) + nr *
    (1 - sum (r / nr)^2)) / m.  The arithmetic is kept term for term: a
    rewrite changes the rounding and can flip a near-tie."""
    ends = np.cumsum(seglen)
    starts = ends - seglen
    cum = np.zeros((n_classes, len(labels) + 1))  # exact counts
    np.cumsum(labels == np.arange(n_classes)[:, None], axis=1, out=cum[:, 1:])
    left = cum[:, 1:] - np.repeat(cum[:, starts], seglen, axis=1)
    right = np.repeat(cum[:, ends] - cum[:, starts], seglen, axis=1)
    right -= left
    del cum  # from here on in place, to hold fewer (C, N) arrays at once
    m = np.repeat(seglen, seglen)
    nl = np.arange(1.0, len(labels) + 1) - np.repeat(starts, seglen)
    nr = m - nl
    nr[ends - 1] = 1.0  # not a cut; spares a 0 / 0
    np.square(np.divide(left, nl, out=left), out=left)
    np.square(np.divide(right, nr, out=right), out=right)
    g = (nl * (1.0 - _class_sum(left)) + nr * (1.0 - _class_sum(right))) / m
    g[ends - 1] = math.inf
    return g


def _grow(X: np.ndarray, y: np.ndarray, n_classes: int,
          rngs: list[np.random.Generator]) -> list[Tree]:
    """One CART tree per generator, each on a bootstrap resample of (X, y):
    no depth limit, leaf minimum 1, per-split feature subset of size
    k = ceil(sqrt(F)).  A tree draws its bootstrap, then one subset
    ``rng.permutation(F)[:k]`` per node of two or more classes, in
    depth-first order (left child first), the order that numbers its nodes.
    The trees grow in lockstep: each step splits the next pending node of
    every tree at once.

    A pending node holds its bootstrap positions.  A step sorts each
    popped node's values of its k candidate features with one integer
    argsort on (node, candidate, dense rank), a radix sort while the keys
    fit 16 bits (``_argsort``), scores every cut in one segmented Gini
    pass and keeps each node's lowest score, ties to the earliest candidate
    and then the lowest cut.  The order within a run of equal values
    changes nothing: no cut falls inside the run, and a cut's class counts
    take in every row before it.  So the order of a node's positions
    changes nothing either.  The node splits at the midpoint of the values
    beside that cut; rows with ``x[f] <= threshold`` go left.  A child holding at most one class is
    a leaf at once; the others wait on their tree's stack."""
    n, F = X.shape
    k = math.ceil(math.sqrt(F))
    C = n_classes
    # sample s = t * n + p is bootstrap position p of tree t, row rows[s] of X
    rows = np.concatenate([rng.integers(0, n, size=n) for rng in rngs])
    ys = y[rows]
    ranks = _dense_ranks(X)
    n_ranks = int(ranks.max()) + 1
    ranks, values = ranks.ravel(), X.ravel()
    # node: [feature, threshold, left, right, counts]
    nodes = [[[-1, 0.0, -1, -1, ()]] for _ in rngs]
    stacks: list[list] = [[] for _ in rngs]

    def settle(t: int, node: int, samples: np.ndarray, dist: list[int]):
        if dist.count(0) < C - 1:
            stacks[t].append((node, samples, dist))
        else:  # pure or empty: no draw, no split
            nodes[t][node][4] = tuple(dist)

    for t in range(len(rngs)):
        root = np.arange(t * n, (t + 1) * n)
        settle(t, 0, root, np.bincount(ys[root], minlength=C).tolist())
    while any(stacks):
        active = [t for t in range(len(rngs)) if stacks[t]]
        popped = [stacks[t].pop() for t in active]
        m = np.array([len(samples) for _, samples, _ in popped])
        smp = np.concatenate([samples for _, samples, _ in popped])
        subs = np.array([rngs[t].permutation(F)[:k] for t in active])
        node_of = np.repeat(np.arange(len(active)), m)
        cells = rows[smp] * F + subs[node_of].T  # (k, M) flat indices of X
        order = _argsort((node_of * k + np.arange(k)[:, None]) * n_ranks
                         + ranks[cells], len(active) * k * n_ranks)
        cells = cells.ravel()[order]
        v = values[cells]
        g = _gini(ys[smp[order % len(smp)]], np.repeat(m, k), C)
        g[:-1][v[1:] == v[:-1]] = math.inf  # no cut between equal values
        starts = np.cumsum(k * m) - k * m
        best = np.minimum.reduceat(g, starts)
        hits = np.flatnonzero(g == np.repeat(best, k * m))
        cut = hits[np.searchsorted(hits, starts)]
        f = cells[cut] % F
        thr = (v[cut] + v[cut + 1]) / 2.0
        go_left = values[rows[smp] * F + np.repeat(f, m)] <= np.repeat(thr, m)
        side = 2 * node_of + ~go_left
        sides = np.bincount(side * C + ys[smp], minlength=2 * len(active) * C)
        smp = smp[_argsort(side, 2 * len(active))]
        at = 0
        for t, (node, samples, dist), split, f_t, thr_t, (dl, dr) in zip(
                active, popped, (best < math.inf).tolist(), f.tolist(),
                thr.tolist(), sides.reshape(-1, 2, C).tolist()):
            mid, end = at + sum(dl), at + len(samples)
            if split:
                tree = nodes[t]
                cl = len(tree)
                tree[node][:4] = f_t, thr_t, cl, cl + 1
                tree += [-1, 0.0, -1, -1, ()], [-1, 0.0, -1, -1, ()]
                settle(t, cl + 1, smp[mid:end], dr)
                settle(t, cl, smp[at:mid], dl)
            else:  # every candidate is constant on the node
                nodes[t][node][4] = tuple(dist)
            at = end
    return [Tree(*map(tuple, zip(*tree))) for tree in nodes]


def grow_forest(X: np.ndarray, y: np.ndarray, n_classes: int,
                train_seed: int, n_trees: int) -> tuple[Tree, ...]:
    """n_trees trees; tree t grows from stream ``rng_for(NS_FOREST,
    train_seed, t)``, in groups of _GROUP_TREES trees."""
    rngs = [rng_for(NS_FOREST, train_seed, t) for t in range(n_trees)]
    return tuple(tree for at in range(0, n_trees, _GROUP_TREES)
                 for tree in _grow(X, y, n_classes,
                                   rngs[at:at + _GROUP_TREES]))


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
