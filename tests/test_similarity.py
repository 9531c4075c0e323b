import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from landscape_atlas import similarity
from landscape_atlas.errors import (
    DegenerateInput, PerplexityTooLarge, TraceDisabled,
)
from landscape_atlas.similarity import (
    Embedding, EmbeddingRow, bandwidth_bisection, kl_trace, tsne_embed,
)


def _blobs(n_per=12, d=8, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.3, (n_per, d))
    b = rng.normal(5.0, 0.3, (n_per, d))
    return np.vstack([a, b])


# --- bandwidth bisection ------------------------------------------------------

def test_bisection_hits_arbitrary_targets_on_random_inputs():
    rng = np.random.default_rng(4)
    d2 = rng.uniform(0.1, 4.0, 40)
    for target in (2.0, 5.0, 17.5, 30.0):
        beta, p = bandwidth_bisection(d2, target)
        assert beta > 0.0
        entropy = -np.sum(p[p > 0] * np.log2(p[p > 0]))
        assert 2.0 ** entropy == pytest.approx(target, abs=1e-4)
        assert entropy == pytest.approx(np.log2(target), abs=1e-3)


def test_equidistant_neighbours_force_the_uniform_distribution():
    # with all squared distances equal the conditional is uniform for every
    # bandwidth, so the only reachable perplexity is the neighbour count
    n_neighbours = 7
    d2 = np.full(n_neighbours, 2.0)
    beta, p = bandwidth_bisection(d2, float(n_neighbours))
    assert np.allclose(p, 1.0 / n_neighbours, atol=1e-12)
    entropy = -np.sum(p * np.log2(p))
    assert entropy == pytest.approx(np.log2(n_neighbours), abs=1e-3)


@pytest.mark.parametrize("d2, target", [
    (np.full(5, 2.0), 6.0),
    (np.array([0.5, 1.0, 2.0, 3.0]), 0.5),
    (np.array([0.5, 1.0, 2.0, 3.0]), 4.0 + 1e-9),
    (np.array([0.5, 1.0, 2.0, 3.0]), float("nan")),
    (np.array([]), 1.0),
], ids=["above-neighbour-count", "below-1", "just-above", "nan", "empty"])
def test_bisection_refuses_an_unreachable_perplexity_before_its_first_step(
        monkeypatch, d2, target):
    def no_work(*args):
        raise AssertionError("bisection started")

    monkeypatch.setattr(similarity, "_conditional_rows", no_work)
    with pytest.raises(ValueError, match="unreachable"):
        bandwidth_bisection(d2, target)


def test_bisection_reaches_the_ends_of_its_range():
    d2 = np.array([0.5, 1.0, 2.0, 3.0])
    for target in (1.0, 4.0):
        _, p = bandwidth_bisection(d2, target)
        entropy = -np.sum(p[p > 0] * np.log2(p[p > 0]))
        assert 2.0 ** entropy == pytest.approx(target, abs=1e-4)


def test_bisection_probabilities_sum_to_one():
    rng = np.random.default_rng(9)
    for _ in range(10):
        d2 = rng.uniform(0.01, 9.0, 25)
        _, p = bandwidth_bisection(d2, 8.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p >= 0.0)


# --- embedding contracts --------------------------------------------------------

def test_embedding_shape_ids_and_kl():
    X = _blobs()
    ids = [("s", f"p{i // 12}", i % 12) for i in range(len(X))]
    emb = tsne_embed(X, ids=ids, perplexity=5.0, embed_seed=0, iterations=120)
    assert len(emb.rows) == len(X)
    assert emb.coordinates.shape == (len(X), 2)
    assert emb.final_kl >= 0.0
    assert emb.rows[0] == EmbeddingRow("s", "p0", 0, emb.rows[0].u, emb.rows[0].v)


def test_kl_trace_has_one_checkpoint_per_50_iterations():
    emb = tsne_embed(_blobs(), perplexity=5.0, iterations=1000)
    trace = kl_trace(emb)
    assert len(trace) == 20
    assert [it for it, _ in trace] == [50 * k for k in range(1, 21)]
    assert all(kl >= 0.0 for _, kl in trace)
    assert trace[-1][1] == emb.final_kl  # both read the final layout


def test_trace_can_be_disabled():
    emb = tsne_embed(_blobs(), perplexity=5.0, iterations=60, trace=False)
    with pytest.raises(TraceDisabled):
        kl_trace(emb)


def test_optimization_reduces_kl():
    X = _blobs(seed=3)
    long = tsne_embed(X, perplexity=5.0, iterations=600)
    trace = dict(kl_trace(long))
    assert trace[600] < trace[300]


def test_input_validation():
    with pytest.raises(ValueError):
        tsne_embed(np.zeros((3, 4)), perplexity=1.0)
    with pytest.raises(PerplexityTooLarge):
        tsne_embed(np.random.default_rng(0).normal(size=(10, 3)), perplexity=3.0)
    with pytest.raises(DegenerateInput):
        tsne_embed(np.ones((12, 3)), perplexity=2.0)
    with pytest.raises(ValueError):
        tsne_embed(_blobs(), ids=[("s", "p", 0)], perplexity=5.0)


@pytest.mark.parametrize("matrix, perplexity", [
    (np.where(np.arange(24)[:, None] == 3, np.nan, _blobs()), 5.0),
    (np.where(np.arange(24)[:, None] == 3, np.inf, _blobs()), 5.0),
    (_blobs(), float("nan")),
    (_blobs(), float("inf")),
    (_blobs(), 0.5),
    (_blobs(), 0.0),
    (_blobs(), -3.0),
], ids=["nan-row", "inf-row", "perplexity-nan", "perplexity-inf",
        "perplexity-0.5", "perplexity-0", "perplexity-neg"])
def test_non_finite_rows_and_perplexity_below_1_are_refused_first(
        monkeypatch, matrix, perplexity):
    def no_work(*args):
        raise AssertionError("affinities started")

    monkeypatch.setattr(similarity, "_affinities", no_work)
    with pytest.raises(ValueError, match="finite"):
        tsne_embed(matrix, perplexity=perplexity, iterations=10)


def test_embedding_rejects_bad_kl():
    with pytest.raises(ValueError):
        Embedding(rows=(), final_kl=-0.5)


def test_duplicate_rows_land_closest_to_each_other():
    X = _blobs(seed=5)
    X[7] = X[3]  # exact duplicate pair
    emb = tsne_embed(X, perplexity=5.0, iterations=400)
    Y = emb.coordinates
    dists = np.linalg.norm(Y - Y[3], axis=1)
    dists[3] = np.inf
    assert np.argmin(dists) == 7


def test_embedding_is_deterministic():
    X = _blobs(seed=6)
    a = tsne_embed(X, perplexity=5.0, embed_seed=2, iterations=150)
    b = tsne_embed(X, perplexity=5.0, embed_seed=2, iterations=150)
    assert np.array_equal(a.coordinates, b.coordinates)
    assert a.final_kl == b.final_kl
    assert kl_trace(a) == kl_trace(b)
    c = tsne_embed(X, perplexity=5.0, embed_seed=3, iterations=150)
    assert not np.array_equal(a.coordinates, c.coordinates)


def test_permuting_rows_permutes_the_embedding():
    # row-content-hash initialization makes the output order-equivariant up
    # to floating-point summation order; the gradient dynamics amplify that
    # noise exponentially, so check a short run with a loose tolerance
    X = _blobs(seed=7)
    perm = np.random.default_rng(1).permutation(len(X))
    a = tsne_embed(X, perplexity=5.0, iterations=10)
    b = tsne_embed(X[perm], perplexity=5.0, iterations=10)
    assert np.allclose(a.coordinates[perm], b.coordinates, atol=1e-6)


def test_well_separated_clusters_stay_separated():
    X = _blobs(seed=8)
    emb = tsne_embed(X, perplexity=5.0, iterations=500)
    Y = emb.coordinates
    a, b = Y[:12], Y[12:]
    intra = max(np.linalg.norm(p - q) for p in a for q in a)
    centroid_gap = np.linalg.norm(a.mean(axis=0) - b.mean(axis=0))
    assert centroid_gap > intra


@pytest.mark.parametrize("iterations", [0, -5])
def test_fewer_than_one_iteration_is_refused_first(monkeypatch, iterations):
    def no_work(*args):
        raise AssertionError("affinities started")

    monkeypatch.setattr(similarity, "_affinities", no_work)
    with pytest.raises(ValueError, match="iterations"):
        tsne_embed(_blobs(), perplexity=5.0, iterations=iterations)


# --- identity with the allocating reference ----------------------------------
#
# The descent runs in place in reused n x n buffers.  The references below
# are the allocating code it replaced: fresh arrays every iteration, an
# np.diag gradient and a shift recomputed at every bisection step.  Maps
# must agree bit for bit: coordinates, KL checkpoints and the final KL.
# The references run in the same process, so these checks hold on every
# numeric stack.

def _ref_squared_distances(X):
    sq = np.einsum("ij,ij->i", X, X)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def _ref_conditional_row(d2_row, beta):
    shifted = d2_row - d2_row.min()
    e = np.exp(-beta * shifted)
    return e / e.sum()


def _ref_row_perplexity(p):
    nz = p[p > 0.0]
    h_bits = float(-(nz * (np.log(nz) / np.log(2.0))).sum())
    return 2.0 ** h_bits


def _ref_bandwidth_bisection(d2_row, perplexity):
    beta = 1.0
    lo, hi = 0.0, np.inf
    p = _ref_conditional_row(d2_row, beta)
    for _ in range(200):
        perp = _ref_row_perplexity(p)
        if abs(perp - perplexity) <= 1e-4:
            break
        if perp > perplexity:
            lo = beta
            beta = beta * 2.0 if np.isinf(hi) else (lo + hi) / 2.0
        else:
            hi = beta
            beta = beta / 2.0 if lo == 0.0 else (lo + hi) / 2.0
        p = _ref_conditional_row(d2_row, beta)
    return beta, p


def _ref_affinities(X, perplexity):
    n = X.shape[0]
    d2 = _ref_squared_distances(X)
    P = np.zeros((n, n))
    mask = ~np.eye(n, dtype=bool)
    for i in range(n):
        _, p = _ref_bandwidth_bisection(d2[i][mask[i]], perplexity)
        P[i][mask[i]] = p
    P = (P + P.T) / (2.0 * n)
    return np.maximum(P, 1e-12)


def _ref_kl_divergence(P, Q):
    mask = ~np.eye(P.shape[0], dtype=bool)
    p, q = P[mask], Q[mask]
    return float(np.sum(p * np.log(p / q)))


def _ref_low_dim_q(Y):
    num = 1.0 / (1.0 + _ref_squared_distances(Y))
    np.fill_diagonal(num, 0.0)
    Q = np.maximum(num / num.sum(), 1e-12)
    return Q, num


def _ref_tsne(X, perplexity, embed_seed, iterations, trace):
    """(coordinates, KL checkpoints or None, final KL) of the allocating
    descent."""
    P = _ref_affinities(X, perplexity)
    P_run = P * 12.0
    Y = similarity._hash_init(X, embed_seed)
    velocity = np.zeros_like(Y)
    gains = np.ones_like(Y)
    checkpoints = []
    Q, num = _ref_low_dim_q(Y)
    for it in range(1, iterations + 1):
        if it == 251:
            P_run = P
        W = (P_run - Q) * num
        grad = 4.0 * ((np.diag(W.sum(axis=1)) - W) @ Y)
        same_sign = np.sign(grad) == np.sign(velocity)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        np.maximum(gains, 0.01, out=gains)
        momentum = 0.5 if it <= 250 else 0.8
        velocity = momentum * velocity - 200.0 * (gains * grad)
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)
        Q, num = _ref_low_dim_q(Y)
        if trace and it % 50 == 0:
            checkpoints.append((it, _ref_kl_divergence(P, Q)))
    return Y, (tuple(checkpoints) if trace else None), _ref_kl_divergence(P, Q)


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@st.composite
def _maps(draw, min_rows=13, max_rows=40):
    n = draw(st.integers(min_rows, max_rows))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.normal(0.0, draw(st.sampled_from([0.1, 1.0, 30.0])), (n, d))
    # duplicate rows: equal distances of 0 and equal starting points
    for _ in range(draw(st.integers(0, 3))):
        i, j = rng.integers(0, n, 2)
        X[i] = X[j]
    perplexity = 1.0 + draw(st.floats(0.0, 0.999)) * ((n - 1) / 3.0 - 1.0)
    return X, perplexity


@settings(max_examples=40, deadline=None)
@given(case=_maps(),
       iterations=st.sampled_from([1, 49, 50, 250, 251, 300]),
       trace=st.booleans(), embed_seed=st.integers(0, 3))
@example(case=(_blobs(n_per=81, d=5, seed=11), 30.0), iterations=251,
         trace=True, embed_seed=0)
# 100 rows: with OpenBLAS SkylakeX, a gemm Gram product of the 2-column
# layout, such as Y @ (2.0 * Y).T, differs bit for bit from the syrk path
# of Y @ Y.T here (and at 13, 308 and 356 rows), but not at the 162 rows
# above, where a descent with the gemm form passes.
@example(case=(_blobs(n_per=50, d=5, seed=3), 30.0), iterations=3,
         trace=False, embed_seed=1)
def test_tsne_embed_matches_the_allocating_reference(case, iterations, trace,
                                                     embed_seed):
    X, perplexity = case
    emb = tsne_embed(X, perplexity=perplexity, embed_seed=embed_seed,
                     iterations=iterations, trace=trace)
    Y, checkpoints, final_kl = _ref_tsne(X, perplexity, embed_seed,
                                         iterations, trace)
    assert _bits(emb.coordinates) == _bits(Y)
    assert _bits(emb.final_kl) == _bits(final_kl)
    if trace:
        assert [it for it, _ in emb.kl_checkpoints] == [
            it for it, _ in checkpoints]
        assert _bits([kl for _, kl in emb.kl_checkpoints]) == _bits(
            [kl for _, kl in checkpoints])
    else:
        assert emb.kl_checkpoints is None


@st.composite
def _bisection_rows(draw):
    m = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["uniform", "equidistant", "underflow",
                                 "ties", "nan"]))
    if kind == "equidistant":
        d2 = np.full(m, draw(st.sampled_from([0.0, 1e-300, 2.0, 1e6])))
    elif kind == "underflow":
        # exp(-beta * shifted) underflows to 0 for all but the nearest
        d2 = np.concatenate([[0.5], rng.uniform(800.0, 5e4, m - 1)])
    elif kind == "ties":
        d2 = rng.integers(0, 3, m).astype(float)
    else:
        d2 = rng.uniform(0.0, 9.0, m)
    if kind == "nan":  # every shifted distance and probability is NaN
        d2[rng.integers(m)] = np.nan
    target = 1.0 + draw(st.floats(0.0, 1.0)) * (m - 1.0)
    return d2, target


@settings(max_examples=200, deadline=None)
@given(case=_bisection_rows())
def test_bandwidth_bisection_matches_the_reference(case):
    d2, target = case
    beta, p = bandwidth_bisection(d2, target)
    ref_beta, ref_p = _ref_bandwidth_bisection(d2, target)
    assert _bits(beta) == _bits(ref_beta)
    assert _bits(p) == _bits(ref_p)


# --- all rows at once -----------------------------------------------------------
#
# tsne_embed bisects every row's bandwidth in one batch, each row in its own
# bracket and under its own step cap.  Each row must come out as the
# per-row reference gives it, beta and probabilities bit for bit.

def _assert_rows_match_the_reference(shifted, target):
    beta, P = similarity._bisect(shifted, target)
    for row, b, p in zip(shifted, beta, P):
        ref_beta, ref_p = _ref_bandwidth_bisection(row, target)
        assert _bits(b) == _bits(ref_beta)
        assert _bits(p) == _bits(ref_p)
    return beta, P


def test_all_rows_bisection_matches_the_per_row_reference_row_by_row():
    m, target = 12, 3.0
    rng = np.random.default_rng(5)
    rows = [
        # far points underflow to 0 at every bandwidth the row tries
        [0.0, 0.1, 0.2, 0.3] + list(rng.uniform(1e5, 1e6, m - 4)),
        # exp(0) three times and 0 for the rest: 3 at beta = 1, first look
        [0.0, 0.0, 0.0] + [1e4] * (m - 3),
        # the same row again: duplicate points at distance 0
        [0.0, 0.0, 0.0] + [1e4] * (m - 3),
        # nearly flat at every beta up to 2 ** 200: stops at the step cap
        [0.0] + [1e-100] * (m - 1),
        [0.0, 0.0, 0.0, 0.0] + list(rng.uniform(0.5, 2.0, m - 4)),
    ] + [list(rng.uniform(0.0, 9.0, m)) for _ in range(4)]
    shifted = np.array(rows)
    shifted -= shifted.min(axis=1, keepdims=True)
    beta, P = _assert_rows_match_the_reference(shifted, target)
    assert (P[0] == 0.0).any() and (P[1] == 0.0).any()
    assert beta[1] == beta[2] == 1.0
    assert beta[3] == 2.0 ** similarity._BANDWIDTH_MAX_ITER
    assert abs(_ref_row_perplexity(P[3]) - target) > similarity._BANDWIDTH_TOL
    assert len(set(beta.tolist())) >= 6


@st.composite
def _bisection_batches(draw):
    m = draw(st.integers(2, 40))
    target = 1.0 + draw(st.floats(0.0, 1.0)) * (m - 1.0)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for kind in draw(st.lists(st.sampled_from(
            ["uniform", "underflow", "ties", "tiny"]), min_size=1, max_size=8)):
        if kind == "underflow":
            rows.append(np.concatenate([[0.5], rng.uniform(800.0, 5e4, m - 1)]))
        elif kind == "ties":
            rows.append(rng.integers(0, 3, m).astype(float))
        elif kind == "tiny":
            rows.append(rng.uniform(0.0, 1e-90, m))
        else:
            rows.append(rng.uniform(0.0, 9.0, m))
    if draw(st.booleans()):
        rows.append(rows[0])
    shifted = np.array(rows)
    return shifted - shifted.min(axis=1, keepdims=True), target


@settings(max_examples=100, deadline=None)
@given(case=_bisection_batches())
def test_all_rows_bisection_matches_the_reference_on_mixed_batches(case):
    _assert_rows_match_the_reference(*case)


def test_affinities_match_the_reference_on_outliers_and_duplicates():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 6))
    X[:4] *= 1e3  # their neighbours' probabilities underflow
    X[10:14] = X[20]
    for perplexity in (2.0, 5.0, 19.0):
        assert _bits(similarity._affinities(X, perplexity)) == _bits(
            _ref_affinities(X, perplexity))
