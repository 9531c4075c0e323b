import warnings

import numpy as np
import pytest

from landscape_atlas.ela import (
    FEATURE_NAMES, FeatureVector, SampleSet, compute_features, lhs_points,
    lhs_sample, meta_model_r2, nearest_better_ratio, normalize_features,
)
from landscape_atlas.ela.features import (
    _nearest_distances, _squared_distances,
)
from landscape_atlas.errors import (
    AllEqualFitness, BadSampleSize, ConstantResponse, TooFewRows,
)
from landscape_atlas.problems import resolve


def _sample(X, y):
    return SampleSet(np.asarray(X, dtype=float), np.asarray(y, dtype=float))


# --- latin hypercube sampling --------------------------------------------------

def test_four_points_fill_the_four_unit_strata():
    X = lhs_points(4, 1, np.zeros(1), np.ones(1), sample_seed=0)
    strata = sorted(int(v // 0.25) for v in X[:, 0])
    assert strata == [0, 1, 2, 3]


def test_one_point_per_stratum_in_every_dimension():
    for n, d in ((10, 2), (50, 5), (100, 3)):
        X = lhs_points(n, d, np.full(d, -2.0), np.full(d, 3.0), sample_seed=n + d)
        for j in range(d):
            bins = np.floor((X[:, j] + 2.0) / 5.0 * n).astype(int)
            assert sorted(bins) == list(range(n))


def test_lhs_is_deterministic():
    a = lhs_points(20, 3, np.zeros(3), np.ones(3), sample_seed=5)
    b = lhs_points(20, 3, np.zeros(3), np.ones(3), sample_seed=5)
    assert np.array_equal(a, b)
    c = lhs_points(20, 3, np.zeros(3), np.ones(3), sample_seed=6)
    assert not np.array_equal(a, c)


def test_lhs_rejects_tiny_designs():
    with pytest.raises(BadSampleSize):
        lhs_points(1, 2, np.zeros(2), np.ones(2), sample_seed=0)


def test_lhs_sample_evaluates_the_instance():
    inst = resolve("sphere", 1, 2)
    s = lhs_sample(inst, 10, sample_seed=3)
    for x, y in zip(s.X, s.y):
        assert y == float(np.dot(x, x))


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        SampleSet(np.zeros((3, 2)), np.zeros(3))  # n < 2d


# --- meta-model R^2 --------------------------------------------------------------

def test_exact_quadratic_is_fit_perfectly():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        n = 20 * d
        X = rng.uniform(-3, 3, (n, d))
        beta = rng.normal(size=d)
        gamma = rng.normal(size=d)
        y = 4.2 + X @ beta + (X ** 2) @ gamma
        assert meta_model_r2(_sample(X, y)) == pytest.approx(1.0, abs=1e-9)


def test_absolute_value_on_symmetric_design():
    # symmetric X forces the linear coefficient to 0; regressing |x| on x^2
    # leaves SS_res = 2/35 of SS_tot = 0.7
    X = np.array([[-1.0], [-0.5], [0.0], [0.5], [1.0]])
    y = np.abs(X[:, 0])
    r2 = meta_model_r2(_sample(X, y))
    assert r2 == pytest.approx(1.0 - (2.0 / 35.0) / 0.7, abs=1e-12)
    assert r2 == pytest.approx(0.918367, abs=1e-6)


def test_constant_response_warns_and_reports_one():
    X = np.linspace(0, 1, 8).reshape(-1, 1)
    with pytest.warns(ConstantResponse):
        assert meta_model_r2(_sample(X, np.ones(8))) == 1.0


def test_r2_is_invariant_under_affine_response_rescaling():
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 2, (40, 3))
    y = np.sin(X).sum(axis=1)
    base = meta_model_r2(_sample(X, y))
    assert meta_model_r2(_sample(X, 2.5 * y + 7.0)) == pytest.approx(base, abs=1e-9)


def test_r2_needs_more_points_than_model_terms():
    with pytest.raises(ValueError):
        meta_model_r2(_sample(np.zeros((3, 1)), np.arange(3.0)))


# --- nearest-better ratio ---------------------------------------------------------

def test_evenly_spaced_line_has_ratio_one():
    s = _sample([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
    assert nearest_better_ratio(s) == pytest.approx(1.0, abs=1e-12)


def test_uneven_line_hand_enumeration():
    # nn distances {2,1,1} mean 4/3; nearest-better {2,1} mean 3/2
    s = _sample([[0.0], [2.0], [3.0]], [0.0, 2.0, 3.0])
    assert nearest_better_ratio(s) == pytest.approx(8.0 / 9.0, abs=1e-12)


def test_all_equal_fitness_rejected():
    s = _sample([[0.0], [1.0], [2.0]], [1.0, 1.0, 1.0])
    with pytest.raises(AllEqualFitness):
        nearest_better_ratio(s)


def _brute_force_nbc(X, y):
    n = len(y)
    nn, nb = [], []
    for i in range(n):
        dists = [np.linalg.norm(X[i] - X[j]) for j in range(n) if j != i]
        nn.append(min(dists))
        better = [np.linalg.norm(X[i] - X[j]) for j in range(n) if y[j] < y[i]]
        if better:
            nb.append(min(better))
    return float(np.mean(nn) / np.mean(nb))


def test_ratio_matches_brute_force_oracle():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(3, 65))
        d = int(rng.integers(1, 6))
        X = rng.uniform(-5, 5, (n, max(d, 1)))
        if n < 2 * X.shape[1]:
            X = X[:, : max(1, n // 2)]
        y = rng.normal(size=n)
        s = _sample(X, y)
        assert nearest_better_ratio(s) == pytest.approx(
            _brute_force_nbc(s.X, s.y), abs=1e-12)


def test_nearest_distances_equal_brute_force_on_duplicates_and_tied_y():
    rng = np.random.default_rng(3)
    zero_nn = zero_nb = 0
    for _ in range(60):
        n = int(rng.integers(2, 40))
        X = rng.integers(0, 3, (n, 2)).astype(float)  # duplicate points
        y = rng.integers(0, 4, n).astype(float)       # tied fitness
        D = np.sqrt(_squared_distances(X))
        D_before = D.copy()
        nn, nb = _nearest_distances(D, y)
        nn_ref = [min(D[i, j] for j in range(n) if j != i) for i in range(n)]
        nb_ref = [min(D[i, j] for j in range(n) if y[j] < y[i])
                  for i in range(n) if (y < y[i]).any()]
        assert nn.tolist() == nn_ref
        assert nb.tolist() == nb_ref
        assert np.array_equal(D, D_before)  # the input is left alone
        zero_nn += int((nn == 0.0).sum())
        zero_nb += int((nb == 0.0).sum())
    assert zero_nn > 0 and zero_nb > 0


# --- full feature battery ----------------------------------------------------------

def test_manifest_has_31_names():
    assert len(FEATURE_NAMES) == 31
    assert len(set(FEATURE_NAMES)) == 31


def test_feature_vector_is_complete_finite_and_ordered():
    inst = resolve("sphere", 1, 2)
    fv = compute_features(lhs_sample(inst, 60, sample_seed=1))
    assert tuple(fv.values.keys()) == FEATURE_NAMES
    arr = fv.as_array()
    assert arr.shape == (31,)
    assert np.all(np.isfinite(arr))


def test_features_are_deterministic():
    s = lhs_sample(resolve("rastrigin", 1, 3), 90, sample_seed=2)
    a = compute_features(s, feature_seed=0).as_array()
    b = compute_features(s, feature_seed=0).as_array()
    assert np.array_equal(a, b)


def test_feature_seed_only_touches_information_content():
    s = lhs_sample(resolve("ackley", 1, 3), 90, sample_seed=2)
    a = compute_features(s, feature_seed=0)
    b = compute_features(s, feature_seed=1)
    ic = {"ic.h_max", "ic.eps_max", "ic.m0", "ic.eps_settle"}
    for name in FEATURE_NAMES:
        if name not in ic:
            assert a.values[name] == b.values[name]


def test_basic_features_are_the_sample_statistics():
    s = lhs_sample(resolve("sphere", 1, 2), 50, sample_seed=4)
    fv = compute_features(s)
    assert fv.values["basic.dim"] == 2.0
    assert fv.values["basic.n_obs"] == 50.0
    assert fv.values["basic.y_min"] == s.y.min()
    assert fv.values["basic.y_max"] == s.y.max()
    assert fv.values["basic.y_mean"] == pytest.approx(s.y.mean(), abs=1e-15)
    assert fv.values["basic.y_sd"] == pytest.approx(s.y.std(ddof=0), abs=1e-15)


def test_quadratic_problem_has_perfect_meta_model_features():
    fv = compute_features(lhs_sample(resolve("sphere", 1, 10), 500, sample_seed=1))
    assert fv.values["meta.quad_r2"] == pytest.approx(1.0, abs=1e-9)


def test_constant_landscape_features_are_flagged_not_fatal():
    X = lhs_points(20, 2, np.zeros(2), np.ones(2), sample_seed=9)
    s = SampleSet(X, np.full(20, 3.25))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstantResponse)
        fv = compute_features(s)
    assert np.all(np.isfinite(fv.as_array()))
    assert len(fv.degenerate) > 0


def test_feature_vector_rejects_nonfinite_values():
    values = {name: 0.0 for name in FEATURE_NAMES}
    values["basic.y_mean"] = float("nan")
    with pytest.raises(ValueError):
        FeatureVector(values=values, degenerate=())


# --- normalization -------------------------------------------------------------------

def _vectors(matrix):
    out = []
    for row in matrix:
        out.append(FeatureVector(values=dict(zip(FEATURE_NAMES, map(float, row))),
                                 degenerate=()))
    return out


def test_retained_columns_are_zero_mean_unit_sd():
    rng = np.random.default_rng(8)
    M = rng.normal(size=(12, 31))
    M[:, 5] = 7.0  # constant column must be dropped
    Z, names = normalize_features(_vectors(M))
    assert Z.shape == (12, 30)
    assert FEATURE_NAMES[5] not in names
    assert np.all(np.abs(Z.mean(axis=0)) <= 1e-12)
    assert np.all(np.abs(Z.std(axis=0) - 1.0) <= 1e-12)


def test_identical_rows_stay_identical_after_normalization():
    rng = np.random.default_rng(9)
    M = rng.normal(size=(6, 31))
    M[4] = M[1]
    Z, _ = normalize_features(_vectors(M))
    assert np.array_equal(Z[4], Z[1])


def test_normalize_needs_two_rows():
    with pytest.raises(TooFewRows):
        normalize_features(_vectors(np.zeros((1, 31))))
