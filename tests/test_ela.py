import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from landscape_atlas.ela import (
    FEATURE_NAMES, FeatureFile, FeatureVector, SampleSet, compute_features,
    feature_documents, lhs_points, lhs_sample, normalize_features,
    read_features, read_features_dir,
)
from landscape_atlas.ela import features
from landscape_atlas.ela.features import (
    _DISP_QUANTILES, _IC_EPSILONS, _IC_SETTLE, _IC_SETTLE_FALLBACK,
    _LEVEL_QUANTILES, _constant, _design, _entropy_nat, _lstsq_r2,
    _nearest_distances, _pca_counts, _sstot, _upper_pairs,
)
from landscape_atlas._seeds import NS_FEATURES, rng_for
from landscape_atlas.errors import BadSampleSize, LandscapeError, TooFewRows
from landscape_atlas.problems import ProblemId, resolve


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


def _meta_model_r2(sample):
    return compute_features(sample).values["meta.quad_r2"]


def _nearest_better_ratio(sample):
    return compute_features(sample).values["nbc.ratio"]


# The battery, and two of its features read alone; the ids name the
# quantities, the meta-model R^2 and the nearest-better ratio.
_ENTRIES = {"compute_features": compute_features,
            "meta_model_r2": _meta_model_r2,
            "nearest_better_ratio": _nearest_better_ratio}


@pytest.mark.parametrize("entry", _ENTRIES.values(), ids=_ENTRIES.keys())
def test_designs_of_no_columns_are_refused_before_any_entry_point(entry):
    # Accepted, this sample gave basic.dim = 0 with a constant design.
    with pytest.raises(ValueError, match=r"need X of shape \(n, d >= 1\)"):
        entry(SampleSet(np.empty((6, 0)), np.arange(6.0)))


@pytest.mark.parametrize("entry", _ENTRIES.values(), ids=_ENTRIES.keys())
@pytest.mark.parametrize("which", ["X", "y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_are_refused_before_any_entry_point(entry, which,
                                                                bad):
    # Accepted, this sample with its NaN response gave a nearest-better
    # ratio of 0.51 and a quadratic R^2 of 0.0, with no error.
    rng = np.random.default_rng(2)
    X, y = rng.uniform(-1.0, 1.0, (30, 2)), rng.normal(size=30)
    (X if which == "X" else y)[7] = bad
    with pytest.raises(ValueError, match=f"non-finite entries in {which}"):
        entry(SampleSet(X, y))


# --- meta-model R^2: the battery's meta.quad_r2 ----------------------------------

def test_exact_quadratic_is_fit_perfectly():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        n = 20 * d
        X = rng.uniform(-3, 3, (n, d))
        beta = rng.normal(size=d)
        gamma = rng.normal(size=d)
        y = 4.2 + X @ beta + (X ** 2) @ gamma
        assert _meta_model_r2(_sample(X, y)) == pytest.approx(1.0, abs=1e-9)


def test_absolute_value_on_symmetric_design():
    # symmetric X forces the linear coefficient to 0; regressing |x| on x^2
    # leaves SS_res = 2/35 of SS_tot = 0.7
    X = np.array([[-1.0], [-0.5], [0.0], [0.5], [1.0]])
    y = np.abs(X[:, 0])
    r2 = _meta_model_r2(_sample(X, y))
    assert r2 == pytest.approx(1.0 - (2.0 / 35.0) / 0.7, abs=1e-12)
    assert r2 == pytest.approx(0.918367, abs=1e-6)


def test_constant_response_whose_mean_does_not_round_back_reports_one():
    X = np.linspace(0, 1, 60).reshape(-1, 1)
    y = np.full(60, 0.1)
    assert y.std() > 0.0  # the mean of sixty 0.1s is not 0.1
    fv = compute_features(_sample(X, y))
    assert fv.values["meta.quad_r2"] == 1.0
    assert "meta.quad_r2" in fv.degenerate


def test_constant_design_is_rank_deficient():
    # no fit: R^2 takes its fallback and is flagged
    fv = compute_features(_sample(np.tile([1.0 / 3.0], (8, 1)), np.arange(8.0)))
    assert fv.values["meta.quad_r2"] == 1.0
    assert _META_FLAGS <= set(fv.degenerate)


def test_r2_is_invariant_under_affine_response_rescaling():
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 2, (40, 3))
    y = np.sin(X).sum(axis=1)
    base = _meta_model_r2(_sample(X, y))
    assert _meta_model_r2(_sample(X, 2.5 * y + 7.0)) == pytest.approx(
        base, abs=1e-9)


def test_r2_needs_more_points_than_model_terms():
    # 1 + 2d terms: the battery needs n >= 2d + 2
    with pytest.raises(ValueError, match="n >= 2d"):
        _meta_model_r2(_sample(np.zeros((3, 1)), np.arange(3.0)))
    assert _meta_model_r2(_sample(np.arange(4.0).reshape(-1, 1),
                                  np.arange(4.0))) == pytest.approx(1.0)


# --- nearest-better ratio: the battery's nbc.ratio -------------------------------

def test_evenly_spaced_line_has_ratio_one():
    s = _sample([[0.0], [1.0], [2.0], [3.0]], [0.0, 1.0, 2.0, 3.0])
    assert _nearest_better_ratio(s) == pytest.approx(1.0, abs=1e-12)


def test_uneven_line_hand_enumeration():
    # nn distances {2,1,1,4} mean 2; nearest-better {2,1,4} mean 7/3
    s = _sample([[0.0], [2.0], [3.0], [7.0]], [0.0, 2.0, 3.0, 7.0])
    assert _nearest_better_ratio(s) == pytest.approx(6.0 / 7.0, abs=1e-12)


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
    checked = 0
    for _ in range(200):
        n = int(rng.integers(3, 65))
        d = int(rng.integers(1, 6))
        X = rng.uniform(-5, 5, (n, max(d, 1)))
        if n < 2 * X.shape[1]:
            X = X[:, : max(1, n // 2)]
        y = rng.normal(size=n)
        s = _sample(X, y)
        if n < 2 * s.dim + 2:
            with pytest.raises(ValueError, match="n >= 2d"):
                _nearest_better_ratio(s)
            continue
        assert _nearest_better_ratio(s) == pytest.approx(
            _brute_force_nbc(s.X, s.y), abs=1e-12)
        checked += 1
    assert checked > 150


def test_nearest_distances_equal_brute_force_on_duplicates_and_tied_y():
    rng = np.random.default_rng(3)
    zero_nn = zero_nb = 0
    for _ in range(60):
        n = int(rng.integers(2, 121))  # above and below the 16 candidates
        X = rng.integers(0, 3, (n, 2)).astype(float)  # duplicate points
        y = rng.integers(0, 4, n).astype(float)       # tied fitness
        design = _design(X)
        nn, nb = design.nn, _nearest_distances(design, y)
        D = [[float(np.linalg.norm(X[i] - X[j])) for j in range(n)]
             for i in range(n)]
        nn_ref = [min(D[i][j] for j in range(n) if j != i) for i in range(n)]
        nb_ref = [min(D[i][j] for j in range(n) if y[j] < y[i])
                  for i in range(n) if (y < y[i]).any()]
        assert isinstance(nb, np.ndarray) and nb.ndim == 1
        assert nn.tolist() == nn_ref
        assert nb.tolist() == nb_ref
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


def _reference_designs():
    """(X, y) pairs: LHS samples of three baselines, and lattice designs
    with duplicated rows and tied responses, where every distance is exact."""
    for k, name in enumerate(("sphere", "rastrigin", "ackley")):
        s = lhs_sample(resolve(name, 1, 3), 40, sample_seed=k)
        yield s.X, s.y
    rng = np.random.default_rng(21)
    for _ in range(6):
        n = int(rng.integers(8, 30))
        yield (rng.integers(0, 3, (n, 2)).astype(float),
               rng.integers(0, 4, n).astype(float))


def _mean_pairwise(X):
    n = len(X)
    return np.mean([np.linalg.norm(X[i] - X[j])
                    for i in range(n) for j in range(i + 1, n)])


def test_dispersion_ratios_match_brute_force():
    for X, y in _reference_designs():
        fv = compute_features(_sample(X, y))
        n = len(y)
        for p in (0.02, 0.05, 0.10, 0.25):
            k = max(2, int(np.ceil(p * n)))
            best = np.argsort(y, kind="stable")[:k]
            ref = _mean_pairwise(X[best]) / _mean_pairwise(X)
            name = f"disp.ratio_{int(round(p * 100)):02d}"
            assert fv.values[name] == pytest.approx(ref, rel=1e-12, abs=1e-15)


def _reference_tour(X, start):
    """(distances, greedy tour from start: the nearest unvisited point
    next, the lowest index on ties), written out point by point."""
    n = len(X)
    dist = [[float(np.linalg.norm(X[i] - X[j])) for j in range(n)]
            for i in range(n)]
    order = [start]
    while len(order) < n:
        cur = order[-1]
        order.append(min((j for j in range(n) if j not in order),
                         key=lambda j: (dist[cur][j], j)))
    return dist, order


def _reference_information_content(X, y, start):
    """The information-content features of the reference tour."""
    dist, order = _reference_tour(X, start)
    slopes = [(y[b] - y[a]) / dist[a][b] if dist[a][b] > 0 else 0.0
              for a, b in zip(order, order[1:])]
    epsilons = [0.0] + [10.0 ** k for k in range(-5, 3)]
    hs = []
    for eps in epsilons:
        s = [1 if v > eps else -1 if v < -eps else 0 for v in slopes]
        pairs = [(a, b) for a, b in zip(s, s[1:]) if a != b]
        counts = {pair: pairs.count(pair) for pair in set(pairs)}
        hs.append(-sum(c / (len(s) - 1) * np.log(c / (len(s) - 1)) / np.log(6)
                       for c in counts.values()))
    signs = [int(np.sign(v)) for v in slopes if v != 0]
    m0 = (1 + sum(a != b for a, b in zip(signs, signs[1:]))) / len(slopes) \
        if signs else 0.0
    settle = [eps for eps, h in zip(epsilons, hs) if h < 0.05]
    return {"ic.h_max": max(hs), "ic.eps_max": epsilons[int(np.argmax(hs))],
            "ic.m0": m0, "ic.eps_settle": settle[0] if settle else 100.0}


def test_information_content_matches_brute_force_tour():
    for X, y in _reference_designs():
        s = _sample(X, y)
        for feature_seed in (0, 1, 2):
            start = int(rng_for(NS_FEATURES, feature_seed).integers(len(y)))
            ref = _reference_information_content(X, y, start)
            fv = compute_features(s, feature_seed)
            for name, value in ref.items():
                assert fv.values[name] == pytest.approx(value, rel=1e-12)


def test_tour_matches_brute_force_order():
    for X, _ in _reference_designs():
        for start in (0, len(X) // 2, len(X) - 1):
            assert _design(X).tour(start).tolist() == _reference_tour(X, start)[1]


def test_exactly_equal_rows_lie_at_distance_zero():
    # The Gram form leaves about 2e-8 between generic equal rows; the better
    # points of row 0 are then only its duplicate, as in the lattice case.
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(2, 11))
        X = rng.uniform(-1.0, 1.0, (4 * d, d))
        X[1] = X[0]
        y = np.zeros(4 * d)
        y[0] = 1.0
        s = _sample(X, y)
        assert _design(s.X).D[0, 1] == 0.0
        assert _NBC_FLAGS <= set(compute_features(s).degenerate)


def test_rows_equal_up_to_rounding_flag_dispersion():
    # Gram-form distances between 1.0 and the next float are all 0
    X = np.tile([[1.0], [np.nextafter(1.0, 2.0)]], (3, 1))
    fv = compute_features(_sample(X, np.arange(6.0)))
    assert np.all(np.isfinite(fv.as_array()))
    flagged = {f"disp.ratio_{q:02d}" for q in (2, 5, 10, 25)} | _NBC_FLAGS
    assert flagged <= set(fv.degenerate)
    assert all(fv.values[name] == 1.0 for name in flagged - _NBC_FLAGS)


@pytest.mark.parametrize("scale", [1e-150, 1e-155, 1e-160, 1e-170])
def test_response_whose_spread_underflows_flags_what_divides_by_it(scale):
    # m2 ** 2 is 0 at every scale here; the sum of squared deviations only
    # at 1e-170, where y.std() is 0 as well.
    X = lhs_sample(resolve("sphere", 1, 2), 20, sample_seed=1).X
    s = _sample(X, np.linspace(0.0, 1.0, 20) * scale)
    no_sstot = scale == 1e-170
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fv = compute_features(s)
    assert np.all(np.isfinite(fv.as_array()))
    flagged = _CONSTANT_RESPONSE_FLAGS
    if no_sstot:
        flagged = flagged | _META_FLAGS | {"nbc.cor_nn_y"}
    assert set(fv.degenerate) == flagged


def test_small_spread_keeps_its_moments_until_m2_squared_is_zero():
    # Just above the boundary (std about 3e-81, m2 ** 2 subnormal but not
    # 0) the response is not flagged and its skewness is scale-free; just
    # below it (std about 3e-82) ydist.* fall back.
    X = lhs_sample(resolve("sphere", 1, 2), 20, sample_seed=1).X
    y = np.linspace(0.0, 1.0, 20) ** 2
    ref = compute_features(_sample(X, y))
    above = compute_features(_sample(X, y * 1e-80))
    below = compute_features(_sample(X, y * 1e-81))
    assert above.degenerate == ()
    assert above.values["ydist.skewness"] == pytest.approx(
        ref.values["ydist.skewness"], rel=1e-3)
    assert set(below.degenerate) == _CONSTANT_RESPONSE_FLAGS


def test_response_whose_moments_overflow_flags_ydist():
    # From 1e78 the mean of c ** 4 overflows, and m2 * m2 soon after; ydist.*
    # then fall back as for an underflowing m2 * m2, with no OverflowError
    # or RuntimeWarning.  Below that the kurtosis is scale-free.  From
    # about 1e154 y.std() itself overflows, and the vector is refused.
    X = lhs_sample(resolve("sphere", 1, 2), 20, sample_seed=1).X
    y = np.linspace(0.0, 1.0, 20)
    ref = compute_features(_sample(X, y)).values["ydist.kurtosis"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for e in range(60, 154):
            fv = compute_features(_sample(X, y * 10.0 ** e))
            assert np.all(np.isfinite(fv.as_array()))
            flagged = set(fv.degenerate) & _CONSTANT_RESPONSE_FLAGS
            assert flagged == (_CONSTANT_RESPONSE_FLAGS if e >= 78 else set())
            if e < 78:
                assert fv.values["ydist.kurtosis"] == pytest.approx(ref)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match="basic.y_sd"):
            compute_features(_sample(X, y * 1e154))


@pytest.mark.parametrize("value", [0.1, 0.7, 1.0 / 3.0])
def test_constant_landscape_features_are_flagged_not_fatal(value):
    X = lhs_points(20, 2, np.zeros(2), np.ones(2), sample_seed=9)
    fv = compute_features(SampleSet(X, np.full(20, value)))
    assert np.all(np.isfinite(fv.as_array()))
    assert len(fv.degenerate) > 0


_CONSTANT_RESPONSE_FLAGS = {"ydist.skewness", "ydist.kurtosis", "ydist.entropy"}
_NBC_FLAGS = {"nbc.ratio", "nbc.sd_ratio", "nbc.cor_nn_y"}
_CONSTANT_DESIGN_FLAGS = {"disp.ratio_02", "disp.ratio_05", "disp.ratio_10",
                          "disp.ratio_25", "pca.expl_x_90",
                          "pca.first_pc_share"}
_META_FLAGS = {"meta.lin_r2", "meta.quad_r2", "meta.lin_coef_min",
               "meta.lin_coef_max", "meta.quad_cond"}


@st.composite
def _degenerate_samples(draw):
    """(kind, X, y) with a constant response, a constant design, both, or
    duplicated rows; whatever is not constant varies.  Varying parts come
    from a lattice of quarters, where the Gram-form distances are exact, so
    a duplicated row lies at distance 0; the constants are any floats, so
    their means need not round back."""
    kind = draw(st.sampled_from(["response", "design", "both", "duplicates"]))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2 * d + 2, 24))
    quarters = st.integers(-12, 12).map(lambda k: k / 4.0)
    constants = st.floats(-1e3, 1e3, allow_subnormal=False)
    X = np.array(draw(st.lists(st.lists(quarters, min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    y = np.array(draw(st.lists(quarters, min_size=n, max_size=n)))
    if kind in ("response", "both"):
        y = np.full(n, draw(constants))
    if kind in ("design", "both"):
        X = np.tile(draw(st.lists(constants, min_size=d, max_size=d)), (n, 1))
    if kind == "duplicates":
        X[draw(st.integers(1, n - 1))] = X[0]
    assume(kind in ("response", "both") or not np.all(y == y[0]))
    assume(kind in ("design", "both") or not np.all(X == X[0]))
    return kind, X, y


@settings(max_examples=200, deadline=None)
@given(_degenerate_samples())
@example(("duplicates", np.array([[0.0], [0.0], [1.0], [2.0]]),
          np.array([1.0, 0.0, 0.0, 0.0])))
def test_degenerate_inputs_give_finite_flagged_features(case):
    kind, X, y = case
    fv = compute_features(SampleSet(X, y))
    assert np.all(np.isfinite(fv.as_array()))
    flagged = set(fv.degenerate)
    const_y, const_x = kind in ("response", "both"), kind in ("design", "both")
    for constant, group in ((const_y, _CONSTANT_RESPONSE_FLAGS),
                            (const_x, _CONSTANT_DESIGN_FLAGS),
                            (const_x and const_y, {"pca.expl_xy_90"})):
        assert group <= flagged if constant else not group & flagged
    if const_y or const_x:
        assert _META_FLAGS | _NBC_FLAGS <= flagged
    else:
        n = len(y)
        nb = [min(np.linalg.norm(X[i] - X[j]) for j in range(n) if y[j] < y[i])
              for i in range(n) if (y < y[i]).any()]
        if not any(nb):
            assert _NBC_FLAGS <= flagged
        else:
            assert "nbc.ratio" not in flagged


# --- design memo -----------------------------------------------------------------

def _memo_cases():
    """(X, y, feature_seed) over four designs, design-major: LHS designs, a
    duplicated row and a constant design, each under several responses."""
    rng = np.random.default_rng(4)
    designs = [lhs_sample(resolve(name, 1, 3), 40, sample_seed=k).X
               for k, name in enumerate(("sphere", "ackley"))]
    designs.append(designs[0].copy())
    designs[-1][5] = designs[-1][9]
    designs.append(np.tile([1.0 / 3.0, 2.0 / 3.0, 0.1], (40, 1)))
    for X in designs:
        for y in (rng.normal(size=40), np.full(40, 0.1),
                  np.round(rng.normal(size=40))):
            for feature_seed in (0, 1):
                yield X, y, feature_seed


def test_memo_values_equal_cold_values():
    cases = list(_memo_cases())
    shuffled = [cases[i] for i in np.random.default_rng(5).permutation(len(cases))]

    def vector(X, y, feature_seed):
        fv = compute_features(_sample(X, y), feature_seed)
        return fv.as_array().tobytes(), fv.degenerate

    features._design_terms.cache_clear()
    warm = [vector(*case) for case in cases + shuffled]
    assert features._design_terms.cache_info().hits > 0
    cold = []
    for case in cases + shuffled:
        features._design_terms.cache_clear()
        cold.append(vector(*case))
    assert warm == cold
    assert any(degenerate for _, degenerate in cold)


def test_designs_differing_in_the_sign_of_zero_do_not_share_an_entry():
    X = lhs_points(12, 2, np.full(2, -1.0), np.ones(2), sample_seed=3)
    X[0, 0] = 0.0
    X_neg = X.copy()
    X_neg[0, 0] = -0.0
    features._design_terms.cache_clear()
    a, b = _design(X), _design(X_neg)
    assert a is not b
    assert features._design_terms.cache_info().misses == 2
    assert _design(X_neg) is b


def test_memo_arrays_are_read_only():
    X = lhs_points(12, 2, np.zeros(2), np.ones(2), sample_seed=4)
    design = _design(X)
    for a in (design.D, design.nn, design.quad, design.cand, design.cand_d,
              design.tour(3)):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_mean_all_is_the_upper_triangle_mean_bit_for_bit():
    rng = np.random.default_rng(11)
    for n in [*range(2, 61), 500]:
        d = 1 + n % 5
        X = lhs_points(n, d, np.full(d, -2.0), np.full(d, 2.0), sample_seed=n)
        dup = X.copy()
        dup[rng.integers(n, size=max(1, n // 3))] = dup[-1]
        pairs = np.ravel_multi_index(np.triu_indices(n, 1), (n, n))
        for design in (X, dup, np.tile(X[0], (n, 1))):
            terms = features._Design(design)
            assert np.float64(terms.mean_all).tobytes() == \
                terms.D.take(pairs).mean().tobytes(), n


def test_a_design_build_caches_no_pair_index_and_the_battery_only_blocks():
    n, d = 500, 10
    X = lhs_points(n, d, np.full(d, -1.0), np.ones(d), sample_seed=5)
    features._design_terms.cache_clear()
    _upper_pairs.cache_clear()
    _design(X)
    assert _upper_pairs.cache_info().currsize == 0
    compute_features(_sample(X, np.sin(3.0 * X).sum(axis=1)))
    blocks = {max(2, int(np.ceil(p * n))) for p in _DISP_QUANTILES}
    assert max(blocks) <= int(np.ceil(n / 4))
    assert _upper_pairs.cache_info().currsize == len(blocks)
    for k in blocks:  # every entry is a block: each call hits
        _upper_pairs(k)
    assert _upper_pairs.cache_info().currsize == len(blocks)
    assert _upper_pairs.cache_info().misses == len(blocks)


# --- byte identity with the per-call battery ---------------------------------------

def _per_call_features(sample, feature_seed):
    """(vector bytes, degenerate) of compute_features as written when the
    memo held only the distances, the nearest-neighbour distances and the
    tours: a full-row nearest-better search, one symbol loop per epsilon,
    one quantile call per level, and the quadratic design and the X-only
    principal components built per call."""
    n, d = sample.n, sample.dim
    X, y = sample.X, sample.y
    design = _design(X)
    const_y, const_x = _constant(y), _constant(X)
    values, degenerate = [], []

    def put(name, value, flag=False):
        values.append(float(value))
        if flag:
            degenerate.append(name)

    for name, v in zip(FEATURE_NAMES[:6], (d, n, y.min(), y.max(), y.mean(),
                                          y.std())):
        put(name, v)
    c = y - y.mean()
    m2 = float(np.mean(c ** 2))
    with np.errstate(over="ignore"):
        m4 = float(np.mean(c ** 4))
    if const_y or not 0.0 < m2 * m2 < np.inf or m4 == np.inf:
        for name in ("ydist.skewness", "ydist.kurtosis", "ydist.entropy"):
            put(name, 0.0, True)
    else:
        put("ydist.skewness", float(np.mean(c ** 3)) / m2 ** 1.5)
        put("ydist.kurtosis", m4 / m2 ** 2 - 3.0)
        put("ydist.entropy", _entropy_nat(y))

    flat_y = const_y or _sstot(y) == 0.0
    quad = np.hstack([np.ones((n, 1)), X, X ** 2])
    lin_fit = quad_fit = None
    if not (flat_y or const_x):
        lin_fit, quad_fit = _lstsq_r2(quad[:, :1 + d], y), _lstsq_r2(quad, y)
    beta = np.abs(lin_fit[1][1:]) if lin_fit else np.zeros(1)
    gamma = np.abs(quad_fit[1][1 + d:]) if quad_fit else np.zeros(1)
    put("meta.lin_r2", lin_fit[0] if lin_fit else 1.0, not lin_fit)
    put("meta.quad_r2", quad_fit[0] if quad_fit else 1.0, not quad_fit)
    put("meta.lin_coef_min", beta.min(), not lin_fit)
    put("meta.lin_coef_max", beta.max(), not lin_fit)
    no_cond = gamma.min() == 0.0
    put("meta.quad_cond", 1.0 if no_cond else gamma.max() / gamma.min(),
        no_cond)

    D, mean_all = design.D, design.mean_all
    rank_order = np.argsort(y, kind="stable")
    for p in _DISP_QUANTILES:
        name = f"disp.ratio_{int(round(p * 100)):02d}"
        if mean_all == 0.0:
            put(name, 1.0, True)
            continue
        k = max(2, int(np.ceil(p * n)))
        best = rank_order[:k]
        sub = D[np.ix_(best, best)]
        put(name, float(sub.take(_upper_pairs(k)).mean()) / mean_all)

    for q in _LEVEL_QUANTILES:
        name = f"level.mmce_{int(round(q * 100)):02d}"
        low = y <= float(np.quantile(y, q))
        if low.all() or not low.any():
            put(name, 0.0, True)
            continue
        c_low, c_high = X[low].mean(axis=0), X[~low].mean(axis=0)
        d_low = np.einsum("ij,ij->i", X - c_low, X - c_low)
        d_high = np.einsum("ij,ij->i", X - c_high, X - c_high)
        put(name, float(np.mean((d_low <= d_high) != low)))

    nn = design.nn
    nb = np.where(y[None, :] < y[:, None], D, np.inf).min(axis=1)
    nb = nb[np.isfinite(nb)]
    nn_sd = float(nn.std())
    no_nb = not nb.any()
    put("nbc.ratio", 1.0 if no_nb else float(nn.mean() / nb.mean()), no_nb)
    if no_nb or nn_sd == 0.0:
        put("nbc.sd_ratio", 1.0, True)
        put("nbc.cor_nn_y", 0.0, True)
    else:
        put("nbc.sd_ratio", float(nb.std()) / nn_sd)
        put("nbc.cor_nn_y", 0.0 if flat_y else np.corrcoef(nn, y)[0, 1],
            flat_y)

    order = design.tour(int(rng_for(NS_FEATURES, feature_seed).integers(n)))
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
        counts = np.bincount(((a + 1) * 3 + (b + 1))[neq], minlength=9)
        p = counts[counts > 0] / len(a)
        h_by_eps.append(float(-(p * (np.log(p) / np.log(6.0))).sum()))
    i_max = int(np.argmax(h_by_eps))
    s0 = np.sign(slopes).astype(int)
    nz = s0[s0 != 0]
    changes = 1 + int(np.count_nonzero(nz[1:] != nz[:-1]))
    settle = [e for e, h in zip(_IC_EPSILONS, h_by_eps) if h < _IC_SETTLE]
    put("ic.h_max", h_by_eps[i_max])
    put("ic.eps_max", _IC_EPSILONS[i_max])
    put("ic.m0", changes / len(slopes) if len(nz) else 0.0)
    put("ic.eps_settle", settle[0] if settle else _IC_SETTLE_FALLBACK,
        not settle)

    expl_x, first_share = (1.0, 1.0) if const_x else _pca_counts(X)
    expl_xy = 1.0 if const_x and const_y else \
        _pca_counts(np.hstack([X, y[:, None]]))[0]
    put("pca.expl_x_90", expl_x, const_x)
    put("pca.expl_xy_90", expl_xy, const_x and const_y)
    put("pca.first_pc_share", first_share, const_x)
    return np.array(values).tobytes(), tuple(degenerate)


def _identity_cases():
    """(X, y) over n from 2d + 2 to 200: LHS designs under smooth and
    rounded responses, lattice designs with duplicate rows and tied
    responses, a duplicated row, a constant response and a constant
    design."""
    rng = np.random.default_rng(31)
    for n in (6, 9, 16, 17, 24, 40, 77, 120, 200):
        d = int(rng.integers(1, min(5, (n - 2) // 2) + 1))
        X = lhs_points(n, d, np.full(d, -2.0), np.full(d, 2.0), n)
        yield X, np.sum(X ** 2, axis=1) + 0.3 * np.sin(5.0 * X[:, 0])
        yield X, -np.sum(X ** 2, axis=1)        # better points lie far off
        yield X, np.round(rng.normal(size=n))   # tied responses
        yield X, np.full(n, 0.1)                # constant response
        lattice = rng.integers(0, 3, (n, d)).astype(float)
        yield lattice, rng.integers(0, 4, n).astype(float)
        dup = X.copy()
        dup[1::3] = dup[0]
        yield dup, rng.normal(size=n)
        yield np.tile(rng.uniform(size=d), (n, 1)), rng.normal(size=n)


def test_battery_is_byte_identical_to_the_per_call_code():
    table_rows = full_rows = 0
    for X, y in _identity_cases():
        s = _sample(X, y)
        features._design_terms.cache_clear()
        for feature_seed in (0, 1):
            fv = compute_features(s, feature_seed)
            ref = _per_call_features(s, feature_seed)
            assert (fv.as_array().tobytes(), fv.degenerate) == ref, \
                (s.n, s.dim)
        design = _design(s.X)
        better = s.y[design.cand] < s.y[:, None]
        table_rows += int(better.any(axis=1).sum())
        full_rows += int((~better.any(axis=1) & (s.y > s.y.min())).sum())
    assert table_rows > 0 and full_rows > 0


def test_feature_vector_rejects_nonfinite_values():
    values = {name: 0.0 for name in FEATURE_NAMES}
    values["basic.y_mean"] = float("nan")
    with pytest.raises(ValueError):
        FeatureVector(values=values, degenerate=())


# --- features files ------------------------------------------------------------

def test_the_reader_returns_what_the_writer_wrote(tmp_path):
    instances = [resolve(p, k, 2) for p, k in (("sphere", 2), ("m7", 1))]
    for inst, doc in zip(instances, feature_documents(instances, 20, 3, 4)):
        path = tmp_path / f"{inst.id.text}-i{inst.instance_seed}.json"
        path.write_text(json.dumps(dict(command="features", **doc)))
    tmp_path.joinpath("map.csv.meta.json").write_text("{}")  # skipped
    files = read_features_dir(str(tmp_path))
    assert [f.path for f in files] == [str(tmp_path / "m7-i1.json"),
                                       str(tmp_path / "sphere-i2.json")]
    fv = compute_features(lhs_sample(instances[0], 20, 3), 4)
    assert files[1] == FeatureFile(
        path=str(tmp_path / "sphere-i2.json"), vector=fv,
        problem=ProblemId.parse("sphere"), instance=2, d=2, n=20,
        sample_seed=3, feature_seed=4)
    assert read_features(files[0].path).problem.suite == "mario"
    # a second file for one pair, and a malformed field, each named
    copy = tmp_path / "sphere-copy.json"
    copy.write_text((tmp_path / "sphere-i2.json").read_text())
    with pytest.raises(LandscapeError, match="sphere-copy.json"):
        read_features_dir(str(tmp_path))
    copy.write_text(copy.read_text().replace('"d": 2', '"d": 2.0'))
    with pytest.raises(ValueError, match=r"sphere-copy.json: malformed d 2\.0"):
        read_features(str(copy))


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
