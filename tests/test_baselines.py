import numpy as np
import pytest

from landscape_atlas.errors import OutOfBounds, UnknownProblem, UnsupportedSeed
from landscape_atlas.problems import baselines
from landscape_atlas.problems.baselines import (
    BASELINE_NAMES, SHEKEL_PEAK_COUNTS, ShekelInstance, baseline_box,
    baseline_eval, shekel_instance,
)

ALL_NAMES = BASELINE_NAMES + tuple(f"shekel-{p}" for p in SHEKEL_PEAK_COUNTS)


def _value(name, seed, x):
    """baseline_eval on a batch of one point."""
    return float(baseline_eval(name, seed, np.asarray(x, dtype=float)[None])[0])


# --- per-point reference: the formulas one row at a time -------------------

def _ref_sphere(x):
    return float(np.dot(x, x))


def _ref_ellipsoid(x):
    d = x.size
    if d == 1:
        return float(x[0] * x[0])
    expo = 6.0 * np.arange(d) / (d - 1)
    return float(np.sum(10.0 ** expo * x * x))


def _ref_rastrigin(x):
    return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))


def _ref_rosenbrock(x):
    if x.size == 1:
        return float((1.0 - x[0]) ** 2)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _ref_ackley(x):
    return float(
        -20.0 * np.exp(-0.2 * np.sqrt(np.mean(x * x)))
        - np.exp(np.mean(np.cos(2.0 * np.pi * x)))
        + 20.0 + np.e
    )


def _ref_griewank(x):
    idx = np.sqrt(np.arange(1.0, x.size + 1.0))
    return float(np.sum(x * x) / 4000.0 - np.prod(np.cos(x / idx)) + 1.0)


def _ref_schwefel(x):
    return float(baselines._SCHWEFEL_OFFSET * x.size
                 - np.sum(x * np.sin(np.sqrt(np.abs(x)))))


def _ref_linear_slope(x):
    d = x.size
    w = np.ones(1) if d == 1 else 1.0 + 9.0 * np.arange(d) / (d - 1)
    return float(np.dot(w, x + 5.0))


_REFERENCE = {
    "sphere": _ref_sphere, "ellipsoid": _ref_ellipsoid,
    "rastrigin": _ref_rastrigin, "rosenbrock": _ref_rosenbrock,
    "ackley": _ref_ackley, "griewank": _ref_griewank,
    "schwefel": _ref_schwefel, "linear-slope": _ref_linear_slope,
}


def _reference(name, seed, x):
    d = x.size
    if name in _REFERENCE:
        return _REFERENCE[name](x - baselines._shift(name, seed, d))
    inst = shekel_instance(int(name.split("-")[1]), seed, d)
    sq = ((x - inst.locations) ** 2).sum(axis=1)
    return float(-np.sum(1.0 / (inst.widths + sq)))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_batch_is_bit_identical_to_the_per_point_reference(name):
    lo, hi = baseline_box(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    for d in (1, 2, 3, 4, 10, 33):
        for n in (1, 2, 33, 500):
            X = rng.uniform(lo, hi, (n, d))
            for seed in (1, 2, 7):
                got = baseline_eval(name, seed, X)
                want = np.array([_reference(name, seed, x) for x in X])
                assert got.shape == (n,)
                assert got.tobytes() == want.tobytes(), (d, n, seed)
                ones = np.concatenate(
                    [baseline_eval(name, seed, X[i:i + 1]) for i in range(n)])
                assert ones.tobytes() == got.tobytes(), (d, n, seed)


# --- analytic functions, unshifted (seed 1) ----------------------------------

def test_sphere_minimum_is_zero():
    assert _value("sphere", 1, np.zeros(2)) == 0.0


def test_sphere_direct_value():
    assert _value("sphere", 1, np.array([1.0, 2.0, 3.0])) == 14.0


def test_ellipsoid_direct_value():
    # d=2: weights 10^0 and 10^6
    assert _value("ellipsoid", 1, np.ones(2)) == pytest.approx(
        1.0 + 1e6, rel=1e-15)


def test_rastrigin_minimum_is_zero():
    assert _value("rastrigin", 1, np.zeros(3)) == pytest.approx(0.0, abs=1e-12)


def test_rosenbrock_minimum_is_zero():
    assert _value("rosenbrock", 1, np.ones(2)) == 0.0


def test_ackley_minimum_is_zero():
    assert _value("ackley", 1, np.zeros(5)) == pytest.approx(0.0, abs=1e-12)


def test_griewank_minimum_is_zero():
    assert _value("griewank", 1, np.zeros(4)) == pytest.approx(0.0, abs=1e-12)


def test_schwefel_near_zero_at_known_optimum():
    x = np.full(3, 420.968746)
    assert _value("schwefel", 1, x) == pytest.approx(0.0, abs=1e-3)


def test_linear_slope_is_nonnegative_with_corner_minimum():
    assert _value("linear-slope", 1, np.full(3, -5.0)) == 0.0
    assert _value("linear-slope", 1, np.zeros(3)) > 0.0


# --- seeded shifts -------------------------------------------------------------

@pytest.mark.parametrize("name", BASELINE_NAMES)
def test_seed_one_is_the_unshifted_function(name):
    lo, hi = baseline_box(name)
    rng = np.random.default_rng(0)
    x = rng.uniform(lo, hi, 4)
    fn_value = _value(name, 1, x)
    assert _value(name, 1, x.copy()) == fn_value  # cache-independent


@pytest.mark.parametrize("name", BASELINE_NAMES)
@pytest.mark.parametrize("seed", [2, 3, 4, 5])
def test_shifted_optimum_lands_in_central_half_of_box(name, seed):
    lo, hi = baseline_box(name)
    d = 3
    # locate the shifted optimum by inverting the translation
    opt = baselines._BASELINES[name][3] + baselines._shift(name, seed, d)
    mid, half = (lo + hi) / 2.0, (hi - lo) / 4.0
    assert np.all(opt >= mid - half) and np.all(opt <= mid + half)
    base_min = _value(name, 1, np.full(d, baselines._BASELINES[name][3]))
    assert _value(name, seed, opt) == pytest.approx(base_min, abs=1e-9)


def test_shifts_differ_between_seeds():
    a = _value("sphere", 2, np.zeros(3))
    b = _value("sphere", 3, np.zeros(3))
    assert a != b


def test_bounds_are_enforced():
    with pytest.raises(OutOfBounds):
        _value("sphere", 1, np.array([0.0, 5.1]))
    with pytest.raises(OutOfBounds):
        _value("rastrigin", 1, np.array([-6.0, 0.0]))


def test_unknown_name_and_bad_seed():
    with pytest.raises(UnknownProblem):
        _value("paraboloid", 1, np.zeros(2))
    with pytest.raises(UnsupportedSeed):
        _value("sphere", 0, np.zeros(2))


# --- shekel foxholes ------------------------------------------------------------

def _with_instance(monkeypatch, inst):
    """Make every shekel-<peaks> name evaluate the hand-built inst."""
    monkeypatch.setattr(baselines, "shekel_instance", lambda *args: inst)


def test_single_peak_at_query_point(monkeypatch):
    inst = ShekelInstance(3, np.array([[1.0, 1.0], [5.0, 5.0], [9.0, 9.0]]),
                          np.array([0.5, 0.25, 0.125]))
    _with_instance(monkeypatch, inst)
    # at the middle peak: its own term is -1/c, others add their distance terms
    s1 = ((np.array([5.0, 5.0]) - np.array([1.0, 1.0])) ** 2).sum()
    s3 = ((np.array([5.0, 5.0]) - np.array([9.0, 9.0])) ** 2).sum()
    expected = -(1 / (0.5 + s1) + 1 / 0.25 + 1 / (0.125 + s3))
    assert _value("shekel-3", 1, np.array([5.0, 5.0])) == pytest.approx(
        expected, abs=1e-12)


def test_two_peaks_equidistant_query(monkeypatch):
    inst = ShekelInstance(3, np.array([[2.0, 0.0], [6.0, 0.0], [4.0, 9.0]]),
                          np.array([0.3, 0.7, 1.0]))
    _with_instance(monkeypatch, inst)
    x = np.array([4.0, 0.0])  # squared distance 4 to the first two peaks
    s3 = ((x - np.array([4.0, 9.0])) ** 2).sum()
    expected = -(1 / (0.3 + 4.0) + 1 / (0.7 + 4.0) + 1 / (1.0 + s3))
    assert _value("shekel-3", 1, x) == pytest.approx(expected, abs=1e-12)


def test_seeded_instance_matches_direct_summation_oracle():
    inst = shekel_instance(3, 1, 2)
    x = np.array([5.0, 5.0])
    total = 0.0
    for i in range(inst.peaks):
        sq = 0.0
        for j in range(2):
            sq += (x[j] - inst.locations[i, j]) ** 2
        total -= 1.0 / (inst.widths[i] + sq)
    assert _value("shekel-3", 1, x) == pytest.approx(total, abs=1e-12)


@pytest.mark.parametrize("peaks", SHEKEL_PEAK_COUNTS)
def test_all_peak_counts_build_and_evaluate(peaks):
    inst = shekel_instance(peaks, 1, 4)
    assert inst.locations.shape == (peaks, 4)
    assert np.all(inst.widths > 0.0) and np.all(inst.widths <= 1.0)
    assert np.all(inst.locations >= 0.0) and np.all(inst.locations <= 10.0)
    value = _value(f"shekel-{peaks}", 1, np.full(4, 5.0))
    assert np.isfinite(value) and value < 0.0


def test_shekel_validation():
    with pytest.raises(UnknownProblem):
        shekel_instance(4, 1, 2)
    with pytest.raises(UnsupportedSeed):
        shekel_instance(3, 0, 2)
    with pytest.raises(OutOfBounds):
        _value("shekel-3", 1, np.array([5.0, 10.5]))
    with pytest.raises(ValueError):
        ShekelInstance(2, np.zeros((3, 2)), np.zeros(2))
    for name in ("shekel-4", "shekel-03", "shekel-"):
        with pytest.raises(UnknownProblem):
            _value(name, 1, np.full(2, 5.0))
        with pytest.raises(UnknownProblem):
            baseline_box(name)


def test_shekel_instances_vary_with_seed():
    a = shekel_instance(5, 1, 2)
    b = shekel_instance(5, 2, 2)
    assert not np.array_equal(a.locations, b.locations)
