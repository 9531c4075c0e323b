import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landscape_atlas.errors import (
    OutOfBounds, UnknownProblem, UnsupportedDimension, UnsupportedSeed,
)
from landscape_atlas.ela.sampling import lhs_points
from landscape_atlas.mario.decoder import CHUNK_ROWS
from landscape_atlas.mario import sim
from landscape_atlas.problems import (
    BoxDomain, ProblemId, core, decode_instance_level, evaluate,
    evaluate_batch, instance_agent, list_problems, resolve,
)


def test_registry_lists_mario_baselines_and_shekels():
    rows = list_problems()
    names = [row["problem"] for row in rows]
    assert len(names) == 44
    assert names[:28] == [f"m{i}" for i in range(1, 29)]
    assert "sphere" in names and "shekel-50" in names


def test_problem_id_parsing():
    assert ProblemId.parse("m1") == ProblemId("mario", 1)
    assert ProblemId.parse(" m28 ") == ProblemId("mario", 28)
    assert ProblemId.parse("shekel-10").suite == "baseline"
    for bad in ("m0", "m29", "mx", "paraboloid", ""):
        with pytest.raises(UnknownProblem):
            ProblemId.parse(bad)


@pytest.mark.parametrize("text", ["m\u00b2", "m\u0663", "m\uff11", "m1\u0663"])
def test_problem_ids_take_only_ascii_digits(text):
    # superscript two, Arabic-Indic three, fullwidth one
    with pytest.raises(UnknownProblem):
        ProblemId.parse(text)
    assert ProblemId.parse("m01") == ProblemId("mario", 1)


@pytest.mark.parametrize("index", [0, -3, 17])
def test_baseline_ids_outside_1_to_16_are_unknown(index):
    with pytest.raises(UnknownProblem):
        resolve(ProblemId("baseline", index), 1, 4)


def test_mario_seed_and_dimension_validation():
    resolve("m1", 7, 10)
    with pytest.raises(UnsupportedSeed):
        resolve("m1", 8, 10)
    with pytest.raises(UnsupportedSeed):
        resolve("m1", 0, 10)
    with pytest.raises(UnsupportedDimension):
        resolve("m1", 1, 1)
    # concatenation variants split the latent vector in half
    resolve("m13", 1, 10)
    with pytest.raises(UnsupportedDimension):
        resolve("m13", 1, 9)


def test_baseline_seed_and_dimension_validation():
    resolve("sphere", 1000, 1)
    with pytest.raises(UnsupportedSeed):
        resolve("sphere", 0, 2)
    with pytest.raises(UnsupportedDimension):
        resolve("sphere", 1, 0)


def test_box_domains():
    mario = resolve("m3", 1, 6).domain
    assert np.all(mario.lower == -1.0) and np.all(mario.upper == 1.0)
    rosen = resolve("rosenbrock", 1, 4).domain
    assert np.all(rosen.lower == -5.0) and np.all(rosen.upper == 10.0)
    shekel = resolve("shekel-5", 1, 4).domain
    assert np.all(shekel.lower == 0.0) and np.all(shekel.upper == 10.0)
    assert mario.contains(np.zeros(6))
    assert not mario.contains(np.full(6, 1.1))
    assert np.all(mario.clip(np.full(6, 2.0)) == 1.0)


def test_box_domain_validation():
    with pytest.raises(ValueError):
        BoxDomain(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        BoxDomain(np.zeros(2), np.ones(3))


def test_evaluate_checks_point_shape_and_bounds():
    inst = resolve("m1", 1, 10)
    with pytest.raises(OutOfBounds):
        evaluate(inst, np.zeros(9))
    with pytest.raises(OutOfBounds):
        evaluate(inst, np.full(10, 1.5))


@pytest.mark.parametrize("name", ("m1", "m11", "m13", "sphere", "shekel-5"))
def test_non_finite_points_are_out_of_bounds(name):
    inst = resolve(name, 1, 2)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(OutOfBounds):
            evaluate(inst, np.array([bad, 0.0]))
        with pytest.raises(OutOfBounds):
            evaluate_batch(inst, np.array([[0.0, 0.0], [0.0, bad]]))


@pytest.mark.parametrize("seed", (1, 7))
@pytest.mark.parametrize("index", range(1, 29))
def test_evaluate_batch_equals_pointwise(index, seed):
    inst = resolve(f"m{index}", seed, 10)
    X = lhs_points(500, 10, inst.domain.lower, inst.domain.upper, seed)
    pointwise = [evaluate(inst, x) for x in X]
    # sizes either side of the decoder's chunk edges
    for n in (1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1, 500):
        assert evaluate_batch(inst, X[:n]).tolist() == pointwise[:n], n


@pytest.mark.parametrize("name", ("m13", "sphere", "shekel-5"))
def test_evaluate_batch_shapes(name):
    inst = resolve(name, 2, 4)
    X = lhs_points(9, 4, inst.domain.lower, inst.domain.upper, 3)
    assert evaluate_batch(inst, X).tolist() == [evaluate(inst, x) for x in X]
    assert evaluate_batch(inst, np.empty((0, 4))).shape == (0,)
    for bad in (np.zeros((3, 5)), np.zeros(4), np.zeros((1, 2, 4))):
        with pytest.raises(OutOfBounds):
            evaluate_batch(inst, bad)


def test_mario_values_are_clamped_to_unit_interval():
    rng = np.random.default_rng(2)
    for index in (1, 5, 8, 11, 16, 23, 28):
        inst = resolve(f"m{index}", 1, 10)
        for _ in range(5):
            v = evaluate(inst, rng.uniform(-1, 1, 10))
            assert 0.0 <= v <= 1.0


@settings(max_examples=30, deadline=None)
@given(index=st.integers(1, 28), seed=st.integers(1, 7),
       x=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_mario_evaluate_stays_in_the_unit_interval(index, seed, x):
    assert 0.0 <= evaluate(resolve(f"m{index}", seed, 4), np.array(x)) <= 1.0


def test_concatenation_variant_decodes_double_width():
    plain = decode_instance_level(resolve("m11", 1, 10), np.zeros(10))
    concat = decode_instance_level(resolve("m13", 1, 10), np.zeros(10))
    assert plain.width == 28
    assert concat.width == 56
    # same decoder on each half: z = (a|a) makes both halves identical
    assert np.array_equal(concat.cells[:, :28], concat.cells[:, 28:])


def test_concatenation_halves_use_the_same_decoder():
    z = np.random.default_rng(9).uniform(-1, 1, 10)
    left = decode_instance_level(resolve("m13", 1, 10), np.concatenate([z[:5], z[:5]]))
    half_params_grid = left.cells[:, :28]
    assert np.array_equal(half_params_grid, left.cells[:, 28:])


def test_agents_match_the_problem_table():
    assert instance_agent(resolve("m1", 1, 10)) is None
    assert instance_agent(resolve("m11", 1, 10)) == "astar"
    assert instance_agent(resolve("m15", 1, 10)) == "scared"
    assert instance_agent(resolve("m16", 1, 10)) == "scared"
    assert instance_agent(resolve("m17", 1, 10)) == "astar"
    assert instance_agent(resolve("sphere", 1, 10)) is None


def test_baselines_decline_to_decode():
    with pytest.raises(UnknownProblem):
        decode_instance_level(resolve("sphere", 1, 10), np.zeros(10))


@pytest.mark.parametrize("name", ("m1", "m11", "m13", "sphere"))
def test_a_batch_and_a_decoded_row_are_checked_once(name, monkeypatch):
    checks, check = [], core._design

    def counted(instance, X):
        checks.append(np.shape(X))
        return check(instance, X)

    monkeypatch.setattr(core, "_design", counted)
    sim._CACHE.clear()
    inst = resolve(name, 1, 4)
    evaluate_batch(inst, np.zeros((3, 4)))
    assert checks == [(3, 4)]
    if name != "sphere":
        assert decode_instance_level(inst, np.zeros(4)) == \
            core._design_levels(inst, np.zeros((1, 4)))[0]
        assert checks == [(3, 4), (1, 4)]
        for bad in (np.zeros(3), np.full(4, np.nan), np.zeros((1, 4))):
            with pytest.raises(OutOfBounds):
                decode_instance_level(inst, bad)


def test_evaluation_is_deterministic_and_picklable():
    import pickle
    inst = resolve("m15", 2, 10)
    x = np.random.default_rng(1).uniform(-1, 1, 10)
    v1 = evaluate(inst, x)
    v2 = evaluate(pickle.loads(pickle.dumps(inst)), x)
    assert v1 == v2


def test_baseline_dispatch_matches_direct_calls():
    from landscape_atlas.problems.baselines import baseline_eval
    x = np.array([1.0, -2.0, 0.5])
    assert evaluate(resolve("rastrigin", 2, 3), x) == baseline_eval(
        "rastrigin", 2, x[None])[0]
    y = np.array([4.0, 6.0])
    assert evaluate(resolve("shekel-7", 3, 2), y) == baseline_eval(
        "shekel-7", 3, y[None])[0]


@pytest.mark.parametrize("suite, index", [
    ("baseline", 0), ("baseline", 17), ("mario", 0), ("mario", 29),
    ("nes", 1),
])
def test_problem_ids_check_their_own_suite_and_index(suite, index):
    with pytest.raises(UnknownProblem):
        ProblemId(suite, index)
