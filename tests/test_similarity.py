import numpy as np
import pytest

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
        Embedding(rows=(), final_kl=-0.5, iterations=10, perplexity=2.0,
                  embed_seed=0)


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
