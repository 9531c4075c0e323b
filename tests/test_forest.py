"""The forest's array passes against the per-feature, per-row code they
replaced.

``grow_forest`` grows its trees in lockstep groups, one node of every tree
a step, and scores every candidate cut of a step in one segmented Gini
pass; a lone tree is a group of one.  ``forest_votes`` descends all rows
and trees together.  The references below grow one tree at a time, with a
per-feature ``argsort`` split at each node, and descend per row and per
tree.  Trees must come out node for node the same, whatever the group
edges, the class count or the ties, and votes share for share.  The
references run in the same process, so these checks hold on every numeric
stack, including the summation order of the Gini class sums.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landscape_atlas._seeds import NS_FOREST, rng_for
from landscape_atlas.ela import FEATURE_NAMES
from landscape_atlas.properties import PropertyModel, forest, predict
from landscape_atlas.properties.forest import (
    Tree, forest_votes, grow_forest)

# A value pool with heavy ties; -0.0 and 0.0 are equal values.
POOL = (0.0, -0.0, 1.0, 2.0, 3.0, -0.5)
# Trees per lockstep group.
CAP = forest._GROUP_TREES
# Two neighbouring doubles whose midpoint rounds up to the larger one, so a
# cut between them sends the whole node left and leaves the right child
# empty.  The left child then repeats its parent, and only a feature draw
# without that column ends the repeats, so random data leaves them out.
LOW, HIGH = 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51
# Column 0 separates the labels perfectly, so whenever it is drawn it wins,
# and its cut sends every row left.
ROUNDS_UP_X = np.array([[LOW, 0.0, 2.0], [HIGH, 1.0, 2.0], [LOW, 1.0, 3.0],
                        [HIGH, 0.0, 3.0]] * 2)
ROUNDS_UP_Y = np.array([0, 1] * 4)


def _ref_best_split(X, y, idx, features, n_classes):
    m = len(idx)
    yn = y[idx]
    best_g = math.inf
    best = None
    for f in features:
        v = X[idx, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        if vs[0] == vs[-1]:
            continue
        onehot = np.zeros((m, n_classes))
        onehot[np.arange(m), yn[order]] = 1.0
        left = np.cumsum(onehot, axis=0)[:-1]
        right = left[-1] + onehot[-1] - left
        nl = np.arange(1, m, dtype=float)
        nr = m - nl
        gl = 1.0 - np.sum((left / nl[:, None]) ** 2, axis=1)
        gr = 1.0 - np.sum((right / nr[:, None]) ** 2, axis=1)
        g = (nl * gl + nr * gr) / m
        g[vs[1:] == vs[:-1]] = math.inf
        i = int(np.argmin(g))
        if g[i] < best_g:
            best_g = g[i]
            best = (int(f), float((vs[i] + vs[i + 1]) / 2.0))
    return best


def _ref_grow_tree(X, y, n_classes, rng):
    n, F = X.shape
    k = math.ceil(math.sqrt(F))
    boot = rng.integers(0, n, size=n)
    feature, threshold, left, right, counts = [], [], [], [], []

    def new_node():
        for column, blank in ((feature, -1), (threshold, 0.0), (left, -1),
                              (right, -1), (counts, ())):
            column.append(blank)
        return len(feature) - 1

    stack = [(new_node(), boot)]
    while stack:
        node, idx = stack.pop()
        dist = np.bincount(y[idx], minlength=n_classes)
        if len(idx) < 2 or np.count_nonzero(dist) == 1:
            counts[node] = tuple(int(c) for c in dist)
            continue
        sub = rng.permutation(F)[:k]
        split = _ref_best_split(X, y, idx, sub, n_classes)
        if split is None:
            counts[node] = tuple(int(c) for c in dist)
            continue
        f, thr = split
        go_left = X[idx, f] <= thr
        feature[node], threshold[node] = f, thr
        nl, nr = new_node(), new_node()
        left[node], right[node] = nl, nr
        stack.append((nr, idx[~go_left]))
        stack.append((nl, idx[go_left]))
    return Tree(tuple(feature), tuple(threshold), tuple(left), tuple(right),
                tuple(counts))


def _ref_leaf_counts(tree, x):
    i = 0
    while tree.feature[i] >= 0:
        i = tree.left[i] if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
    return tree.counts[i]


def _ref_votes(trees, x, n_classes):
    votes = np.zeros(n_classes)
    for t in trees:
        c = _ref_leaf_counts(t, x)
        votes[max(range(n_classes), key=lambda j: (c[j], -j))] += 1.0
    return votes / len(trees)


@st.composite
def _data(draw, max_rows=24, max_features=7, max_classes=5):
    n = draw(st.integers(2, max_rows))
    F = draw(st.integers(1, max_features))
    n_classes = draw(st.integers(2, max_classes))
    constant = draw(st.lists(st.booleans(), min_size=F, max_size=F))
    columns = []
    for c in range(F):
        if constant[c]:
            columns.append([draw(st.sampled_from(POOL))] * n)
        elif draw(st.booleans()):
            columns.append(draw(st.lists(st.sampled_from(POOL),
                                         min_size=n, max_size=n)))
        else:
            columns.append(draw(st.lists(
                st.floats(-4.0, 4.0, allow_nan=False, width=16),
                min_size=n, max_size=n)))
    X = np.array(columns, dtype=float).T
    if draw(st.booleans()):  # repeat rows, often under different labels
        X = X[draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))]
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1),
                               min_size=n, max_size=n)))
    return X, y, n_classes


@settings(max_examples=300, deadline=None)
@given(data=_data(), seed=st.integers(0, 2 ** 32 - 1))
def test_grow_tree_matches_the_per_feature_reference(data, seed):
    X, y, n_classes = data
    got = forest._grow(X, y, n_classes, [np.random.default_rng(seed)])[0]
    want = _ref_grow_tree(X, y, n_classes, np.random.default_rng(seed))
    assert got == want


@settings(max_examples=60, deadline=None)
@given(data=_data(max_rows=20, max_features=5, max_classes=9),
       n_trees=st.sampled_from([1, CAP - 1, CAP, CAP + 1, 2 * CAP + 1]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_grow_forest_matches_the_per_tree_reference(data, n_trees, seed):
    # the group edges, and 2..9 classes: numpy adds a class axis of 8 or
    # more entries pairwise, not left to right
    X, y, n_classes = data
    want = tuple(_ref_grow_tree(X, y, n_classes, rng_for(NS_FOREST, seed, t))
                 for t in range(n_trees))
    assert grow_forest(X, y, n_classes, seed, n_trees) == want


def test_eight_classes_are_summed_pairwise_as_before():
    # numpy adds a contiguous class axis of 8 or more entries pairwise; a
    # left-to-right sum of these rows' squared class shares rounds some
    # cut scores differently, and tree 1 changes
    X = np.array([[2, 3], [0, 2], [0, 3], [2, 3], [3, 2], [1, 2], [2, 0],
                  [4, 2], [5, 2], [5, 2]], dtype=float)
    y = np.array([4, 1, 5, 2, 6, 4, 6, 3, 6, 1])
    assert grow_forest(X, y, 8, 0, 3) == tuple(
        _ref_grow_tree(X, y, 8, rng_for(NS_FOREST, 0, t)) for t in range(3))


def test_a_cut_that_rounds_up_leaves_an_empty_child_as_before():
    assert (LOW + HIGH) / 2.0 == HIGH
    X, y = ROUNDS_UP_X, ROUNDS_UP_Y
    empty = 0
    for seed in range(10):
        got = forest._grow(X, y, 2, [np.random.default_rng(seed)])[0]
        assert got == _ref_grow_tree(X, y, 2, np.random.default_rng(seed))
        empty += got.counts.count((0, 0))
    assert empty > 0


def test_a_cut_that_rounds_up_leaves_an_empty_child_inside_a_forest():
    X, y = ROUNDS_UP_X, ROUNDS_UP_Y
    trees = grow_forest(X, y, 2, 0, 2 * CAP + 1)
    assert trees == tuple(_ref_grow_tree(X, y, 2, rng_for(NS_FOREST, 0, t))
                          for t in range(2 * CAP + 1))
    assert sum(t.counts.count((0, 0)) for t in trees) > 0


@pytest.mark.parametrize("group", [1, 25, 50])
def test_every_group_size_grows_the_reference_trees(monkeypatch, group):
    rng = np.random.default_rng(group)
    X = rng.choice(POOL, size=(20, 5))
    X[:, 0] = rng.normal(size=20)
    y = rng.integers(0, 3, size=20)
    monkeypatch.setattr(forest, "_GROUP_TREES", group)
    n_trees = 2 * group + 1
    assert grow_forest(X, y, 3, 7, n_trees) == tuple(
        _ref_grow_tree(X, y, 3, rng_for(NS_FOREST, 7, t))
        for t in range(n_trees))


@pytest.mark.parametrize("noise", [0.1, 0.5])
def test_steps_on_both_sides_of_16_bit_keys_grow_the_reference_trees(
        monkeypatch, noise):
    # 50 trees, k = 6 of 31 columns and 240 distinct values a column: a
    # step of 46 or more trees has keys beyond 16 bits, a later step of
    # fewer trees radix-sorts them
    rng = np.random.default_rng(0)
    z = rng.normal(size=240)
    X = z[:, None] + rng.normal(scale=noise, size=(240, 31))
    y = (z > 0).astype(int) + (z > 1)
    tops = []

    def spy(keys, top):
        tops.append(top)
        return argsort(keys, top)

    argsort = forest._argsort
    monkeypatch.setattr(forest, "_argsort", spy)
    assert grow_forest(X, y, 3, 0, 50) == tuple(
        _ref_grow_tree(X, y, 3, rng_for(NS_FOREST, 0, t)) for t in range(50))
    assert max(tops) == 50 * 6 * 240 > 2 ** 16
    assert any(2 ** 8 < top <= 2 ** 16 for top in tops)


@pytest.mark.parametrize("top", [1, 2 ** 8, 2 ** 8 + 1, 2 ** 16, 2 ** 16 + 1])
def test_keys_sort_stably_to_16_bits_and_in_order_beyond(top):
    rng = np.random.default_rng(top)
    keys = np.append(rng.integers(0, top, size=(3, 400)), top - 1)
    order = forest._argsort(keys, top)
    assert np.array_equal(keys.ravel()[order], np.sort(keys, axis=None))
    if top <= 2 ** 16:
        assert np.array_equal(order, np.argsort(keys, axis=None, kind="stable"))


@settings(max_examples=150, deadline=None)
@given(data=_data(max_rows=16, max_features=4),
       n_trees=st.integers(1, 6),
       leaf_counts=st.lists(st.integers(0, 2), min_size=1, max_size=40),
       n_queries=st.integers(1, 12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_forest_votes_match_per_row_per_tree_voting(data, n_trees, leaf_counts,
                                                    n_queries, seed):
    X, y, n_classes = data
    rng = np.random.default_rng(seed)
    trees = []
    for t in range(n_trees):
        tree = forest._grow(X, y, n_classes, [rng])[0]
        # overwrite the leaves' counts with small integers, so count ties
        # at the leaves (all-zero included) are common
        counts = tuple(
            tuple(leaf_counts[(i * n_classes + c) % len(leaf_counts)]
                  for c in range(n_classes)) if f < 0 else ()
            for i, f in enumerate(tree.feature))
        trees.append(Tree(tree.feature, tree.threshold, tree.left, tree.right,
                          counts))
    trees = tuple(trees)
    rows = rng.integers(0, len(X), size=n_queries)
    queries = X[rows] + rng.choice([0.0, 0.0, 0.25, -0.25], size=X[rows].shape)
    got = forest_votes(trees, queries, n_classes)
    assert got.shape == (n_queries, n_classes)
    for q, shares in zip(queries, got):
        assert np.array_equal(shares, _ref_votes(trees, q, n_classes))


def test_count_and_vote_ties_go_to_the_lowest_class():
    # every leaf ties on counts; the stump then votes class 1 (x <= 0.5) or
    # 2, the single leaf class 0, so the forest ties on every row
    stump = Tree(feature=(0, -1, -1), threshold=(0.5, 0.0, 0.0),
                 left=(1, -1, -1), right=(2, -1, -1),
                 counts=((), (0, 1, 1), (0, 3, 3)))
    leaf = Tree(feature=(-1,), threshold=(0.0,), left=(-1,), right=(-1,),
                counts=((2, 2, 0),))
    shares = forest_votes((stump, leaf), np.array([[0.0], [1.0]]), 3)
    assert shares.tolist() == [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]
    model = PropertyModel("adhoc", ("a", "b", "c"), FEATURE_NAMES, 0,
                          (stump, leaf), 1.0)
    for x0 in (0.0, 1.0):
        values = dict.fromkeys(FEATURE_NAMES, 0.0)
        values[FEATURE_NAMES[0]] = x0
        assert predict(model, [values])[0] == ["a"]
