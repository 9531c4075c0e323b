"""The shared-design memo of problems.core.

``sim._CACHE`` holds one record per decoder: the last design read under it,
its decoded grids, and each agent's runs once the first problem needs them.
Every m-problem that evaluates that design under that decoder reads the
record.  These tests pin that the memo never changes a value (cold, warm,
after another design evicted the record, pointwise, duplicated or permuted
rows, concatenation variants, walk bundles), that it holds one record per
decoder with the last design read, that what it hands out cannot be
mutated, and that ``sim._CACHE.clear()`` resets it.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landscape_atlas import walks
from landscape_atlas.ela.sampling import lhs_points
from landscape_atlas.errors import OutOfBounds
from landscape_atlas.mario import sim
from landscape_atlas.mario.decoder import decode_levels
from landscape_atlas.mario.sim import SimulationResult
from landscape_atlas.mario.tiles import TileGrid
from landscape_atlas.problems import core, evaluate, evaluate_batch, resolve

DIM = 4
MARIO = [f"m{i}" for i in range(1, 29)]
# One problem of each kind: grid measure, astar, concatenated astar, scared,
# over both variants.
MIXED = ["m1", "m2", "m11", "m12", "m13", "m14", "m15", "m16"]


def _design(n: int, seed: int) -> np.ndarray:
    box = np.full(DIM, -1.0), np.full(DIM, 1.0)
    return lhs_points(max(n, 2), DIM, *box, seed)[:n]


def _held_rows() -> int:
    return sum(len(record[1]) for record in sim._CACHE.values())


def _pointwise_cold(inst, X) -> np.ndarray:
    values = []
    for x in X:
        sim._CACHE.clear()
        values.append(evaluate(inst, x))
    return np.array(values)


@pytest.fixture(autouse=True)
def _empty_memo():
    sim._CACHE.clear()
    yield
    sim._CACHE.clear()


@pytest.fixture
def sim_calls(monkeypatch):
    """Counts of core.simulate calls per agent."""
    calls = {sim.ASTAR: 0, sim.SCARED: 0}

    def counting(grid, agent):
        calls[agent] += 1
        return sim.simulate(grid, agent)

    monkeypatch.setattr(core, "simulate", counting)
    return calls


@pytest.fixture
def decodes(monkeypatch):
    """Rows passed to core.decode_levels, one entry per call."""
    calls = []

    def counting(params, Z):
        calls.append(len(Z))
        return decode_levels(params, Z)

    monkeypatch.setattr(core, "decode_levels", counting)
    return calls


@pytest.mark.parametrize("problem", MARIO)
def test_values_equal_cold_warm_evicted_and_pointwise(problem):
    inst = resolve(problem, 2, DIM)
    X, other = _design(12, 3), _design(12, 4)
    cold = evaluate_batch(inst, X)
    warm = evaluate_batch(inst, X)
    evaluate_batch(inst, other)  # takes X's place
    assert [record[0] for record in sim._CACHE.values()] == [other.tobytes()]
    assert _held_rows() == 12
    evicted = evaluate_batch(inst, X)
    assert np.array_equal(cold, warm)
    assert np.array_equal(cold, evicted)
    assert np.array_equal(cold, _pointwise_cold(inst, X))
    assert np.array_equal(cold, [evaluate(inst, x) for x in X])


_POOL = _design(6, 11)
_REFERENCE = {}


def _reference(problem: str, seed: int) -> np.ndarray:
    """Cold pointwise values of the pool rows."""
    key = (problem, seed)
    if key not in _REFERENCE:
        _REFERENCE[key] = _pointwise_cold(resolve(problem, seed, DIM), _POOL)
    return _REFERENCE[key]


@settings(max_examples=30, deadline=None)
@given(calls=st.lists(
    st.tuples(st.sampled_from(MIXED), st.integers(1, 2),
              st.lists(st.integers(0, len(_POOL) - 1), min_size=1,
                       max_size=9)),
    min_size=1, max_size=6))
def test_duplicated_and_permuted_rows_match_cold_pointwise_values(calls):
    references = [_reference(problem, seed) for problem, seed, _ in calls]
    sim._CACHE.clear()
    for (problem, seed, rows), reference in zip(calls, references):
        values = evaluate_batch(resolve(problem, seed, DIM), _POOL[rows])
        assert np.array_equal(values, reference[rows])


@settings(max_examples=30, deadline=None)
@given(calls=st.lists(
    st.tuples(st.sampled_from(MIXED), st.integers(1, 2), st.integers(1, 9),
              st.integers(1, 3)),
    min_size=1, max_size=8))
def test_the_memo_never_holds_more_rows_than_its_bound(calls):
    """The bound is one design per decoder read: the last one."""
    sim._CACHE.clear()
    last = {}
    for problem, seed, n, design_seed in calls:
        inst, X = resolve(problem, seed, DIM), _design(n, design_seed)
        evaluate_batch(inst, X)
        last[core._decoder_key(inst)] = X
        assert sim._CACHE.keys() == last.keys()
        for key, design in last.items():
            assert sim._CACHE[key][0] == design.tobytes()
            assert len(sim._CACHE[key][1]) == len(design)
        assert _held_rows() == sum(len(design) for design in last.values())


def test_problems_sharing_a_design_share_its_grids_and_runs(sim_calls):
    X = np.vstack([_design(10, 5), _design(10, 5)[:4]])  # 4 repeated rows
    evaluate_batch(resolve("m11", 1, DIM), X)
    distinct = sim_calls[sim.ASTAR]
    assert distinct <= 10
    for problem in ("m1", "m3", "m17", "m23"):  # same decoder and agent
        evaluate_batch(resolve(problem, 1, DIM), X)
    assert sim_calls == {sim.ASTAR: distinct, sim.SCARED: 0}
    assert len(sim._CACHE) == 1
    evaluate_batch(resolve("m15", 1, DIM), X)  # same decoder, scared
    assert sim_calls == {sim.ASTAR: distinct, sim.SCARED: distinct}
    assert len(sim._CACHE) == 1
    for problem in ("m12", "m13", "m14"):  # three other decoders
        evaluate_batch(resolve(problem, 1, DIM), X)
    evaluate_batch(resolve("m11", 2, DIM), X)  # another instance seed
    assert len(sim._CACHE) == 5


def test_a_hit_hands_out_nothing_mutable():
    inst = resolve("m13", 1, DIM)
    X = _design(5, 2)
    evaluate_batch(inst, X)
    record = core._design_record(inst, X, sim.ASTAR)
    assert record is sim._CACHE[core._decoder_key(inst)]
    design, grids, astar, scared = record
    assert design == X.tobytes() and isinstance(design, bytes)
    assert isinstance(record, tuple) and isinstance(grids, tuple)
    assert isinstance(astar, tuple) and scared is None
    assert len(grids) == len(astar) == 5
    for grid, run in zip(grids, astar):
        assert type(grid) is TileGrid and type(run) is SimulationResult
        assert not grid.cells.flags.writeable
        with pytest.raises(ValueError):
            grid.cells[0, 0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.cells = np.zeros((14, 56), dtype=np.int8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            run.won = not run.won


@pytest.mark.parametrize("problem", ["m1", "m11", "m13"])
def test_a_nan_design_raises_while_the_decoder_is_warm(problem):
    inst = resolve(problem, 1, DIM)
    X = _design(6, 1)
    evaluate_batch(inst, X)
    bad = X.copy()
    bad[2, 1] = np.nan
    with pytest.raises(OutOfBounds):
        evaluate_batch(inst, bad)
    with pytest.raises(OutOfBounds):
        evaluate(inst, bad[2])
    assert len(sim._CACHE) == 1


def test_clearing_the_cache_makes_the_next_call_recompute(sim_calls):
    inst = resolve("m15", 3, DIM)
    X = _design(8, 6)
    first = evaluate_batch(inst, X)
    runs = sim_calls[sim.SCARED]
    evaluate_batch(inst, X)
    assert sim_calls[sim.SCARED] == runs
    sim._CACHE.clear()
    assert np.array_equal(evaluate_batch(inst, X), first)
    assert sim_calls[sim.SCARED] == 2 * runs
    assert list(sim._CACHE) == [core._decoder_key(inst)]
    assert _held_rows() == 8


def test_simulate_itself_keeps_no_memo(monkeypatch):
    grid = core.decode_instance_level(resolve("m11", 1, DIM), np.zeros(DIM))
    runs = []
    run_astar = sim._run_astar
    monkeypatch.setattr(sim, "_run_astar",
                        lambda lv, track=None: runs.append(1)
                        or run_astar(lv, track))
    assert sim.simulate(grid, sim.ASTAR) == sim.simulate(grid, sim.ASTAR)
    assert len(runs) == 2
    assert not hasattr(sim, "_CACHE_LIMIT")
    assert sim._CACHE == {}


def _trace_bytes(trace) -> tuple:
    return (trace.offsets, trace.points.tobytes(),
            np.array(trace.values).tobytes())


# One problem per decoder kind (overworld, underground and both
# concatenation variants), agents included, and a baseline.
@pytest.mark.parametrize("problem", ["m1", "m12", "m13", "m14", "m15",
                                     "rastrigin"])
@pytest.mark.parametrize("d", [2, 10])
def test_a_bundle_equals_its_walks_one_by_one(problem, d):
    inst = resolve(problem, 2, d)
    for anchor_seed in (1, 2, 3):
        sim._CACHE.clear()
        bundle = walks.walk_bundle(inst, anchor_seed, 3)
        assert len(bundle) == 3
        for trace in bundle:
            sim._CACHE.clear()
            alone = walks.diagonal_walk(inst, trace.spec)
            assert _trace_bytes(trace) == _trace_bytes(alone)


def test_problems_sharing_a_decoder_share_a_bundle(decodes, sim_calls):
    bundle = walks.walk_bundle(resolve("m1", 1, DIM), 5, 3)
    rows = sum(len(trace.offsets) for trace in bundle)
    assert decodes == [rows]  # the bundle is one design
    distinct = len({core.decode_instance_level(resolve("m1", 1, DIM), x)
                    .cells.tobytes() for t in bundle for x in t.points})
    decodes.clear()
    walks.walk_bundle(resolve("m3", 1, DIM), 5, 3)  # same decoder, grids
    assert decodes == [] and sim_calls == {sim.ASTAR: 0, sim.SCARED: 0}
    walks.walk_bundle(resolve("m11", 1, DIM), 5, 3)  # first astar problem
    assert decodes == []
    assert sim_calls == {sim.ASTAR: distinct, sim.SCARED: 0}
    for problem in ("m3", "m11", "m17"):  # grids and astar runs shared
        walks.walk_bundle(resolve(problem, 1, DIM), 5, 3)
    assert decodes == []
    assert sim_calls == {sim.ASTAR: distinct, sim.SCARED: 0}
    assert len(sim._CACHE) == 1
