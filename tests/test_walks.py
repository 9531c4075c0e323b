import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from landscape_atlas.errors import AnchorOutOfBounds, DegenerateDirection
from landscape_atlas.problems import (
    BASELINE_NAMES, SHEKEL_PEAK_COUNTS, decode_instance_level, evaluate, resolve,
)
from landscape_atlas.walks import (
    MAX_WALK_POINTS, WalkSpec, default_step, diagonal_walk, walk_bundle,
)


def _unit_box_instance(d=2):
    # mario problems use the [-1, 1]^d box; m1 is the cheapest to evaluate
    return resolve("m1", 1, d)


def test_centered_anchor_covers_the_box_symmetrically():
    inst = _unit_box_instance()
    trace = diagonal_walk(inst, WalkSpec(np.zeros(2), np.array([1.0, 0.0]), 0.5))
    assert trace.offsets == (-2, -1, 0, 1, 2)
    assert [p[0] for p in trace.points] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert all(p[1] == 0.0 for p in trace.points)


def test_off_center_anchor_is_not_centered():
    inst = _unit_box_instance()
    trace = diagonal_walk(inst, WalkSpec(np.array([0.9, 0.0]),
                                         np.array([1.0, 0.0]), 0.5))
    assert trace.offsets == (-3, -2, -1, 0)
    assert trace.points[-1][0] == pytest.approx(0.9)
    assert trace.points[0][0] == pytest.approx(-0.6)


def test_direction_is_normalized_before_stepping():
    inst = _unit_box_instance()
    a = diagonal_walk(inst, WalkSpec(np.zeros(2), np.array([2.0, 0.0]), 0.5))
    b = diagonal_walk(inst, WalkSpec(np.zeros(2), np.array([1.0, 0.0]), 0.5))
    assert a.offsets == b.offsets
    assert np.allclose(a.points, b.points)


def test_zero_direction_rejected():
    with pytest.raises(DegenerateDirection):
        WalkSpec(np.zeros(2), np.zeros(2), 0.5)


def test_nonpositive_step_rejected():
    with pytest.raises(ValueError):
        WalkSpec(np.zeros(2), np.ones(2), 0.0)


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_non_finite_step_anchor_or_direction_rejected(bad):
    with pytest.raises(ValueError):
        WalkSpec(np.zeros(2), np.ones(2), bad)
    with pytest.raises(ValueError):
        WalkSpec(np.array([0.0, bad]), np.ones(2), 0.5)
    with pytest.raises(ValueError):
        WalkSpec(np.zeros(2), np.array([1.0, bad]), 0.5)
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        WalkSpec(np.zeros(2), np.full(2, 1e308), 0.5)  # the norm overflows


def test_a_step_that_moves_no_coordinate_is_refused_by_name():
    # 1e-300 moves no coordinate of [-5, 5] by more than 1e-12 of its scale
    inst = resolve("sphere", 1, 2)
    spec = WalkSpec(np.zeros(2), np.array([1.0, 0.0]), 1e-300)
    with pytest.raises(ValueError, match="step 1e-300 moves no coordinate"):
        diagonal_walk(inst, spec)


def test_a_step_that_brackets_more_than_the_ceiling_is_refused_by_name():
    # From the lower face of [-5, 5], a step just over 1e-12 of the box's
    # scale, the least that moves a coordinate, brackets about 2e12 offsets:
    # as int64 that is 16 TB, which no allocation here can take, so a walk
    # that allocated before testing the ceiling would raise MemoryError.
    inst = resolve("sphere", 1, 1)
    spec = WalkSpec(np.array([-5.0]), np.array([1.0]), 5.000001e-12)
    with pytest.raises(ValueError, match=f"more than the {MAX_WALK_POINTS}"):
        diagonal_walk(inst, spec)


def test_anchor_outside_box_rejected():
    inst = _unit_box_instance()
    with pytest.raises(AnchorOutOfBounds):
        diagonal_walk(inst, WalkSpec(np.array([1.5, 0.0]), np.ones(2), 0.5))


def test_consecutive_points_are_equidistant():
    inst = resolve("m2", 1, 5)
    for seed in range(4):
        for trace in walk_bundle(inst, seed, 2):
            steps = np.linalg.norm(np.diff(trace.points, axis=0), axis=1)
            assert np.all(np.abs(steps - trace.spec.step) <= 1e-12)


def test_walks_are_maximal_within_the_box():
    # one more step on either end would leave the box
    inst = resolve("m1", 1, 3)
    box = inst.domain
    for seed in range(5):
        (trace,) = walk_bundle(inst, seed, 1)
        spec = trace.spec
        beyond_hi = spec.anchor + ((trace.offsets[-1] + 1) * spec.step) * spec.direction
        beyond_lo = spec.anchor + ((trace.offsets[0] - 1) * spec.step) * spec.direction
        assert not box.contains(beyond_hi)
        assert not box.contains(beyond_lo)


def test_bundle_shares_the_anchor_point():
    inst = resolve("m1", 1, 10)
    traces = walk_bundle(inst, 42, 3)
    assert len(traces) == 3
    anchors = [t.points[list(t.offsets).index(0)] for t in traces]
    assert np.array_equal(anchors[0], anchors[1])
    assert np.array_equal(anchors[0], anchors[2])


def test_same_seed_gives_same_geometry_across_problems():
    a = walk_bundle(resolve("m7", 1, 10), 7, 2)
    b = walk_bundle(resolve("m8", 1, 10), 7, 2)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.spec.anchor, tb.spec.anchor)
        assert np.array_equal(ta.spec.direction, tb.spec.direction)
    # same geometry, different objective
    assert any(ta.values != tb.values for ta, tb in zip(a, b))


def test_walks_are_reproducible():
    a = walk_bundle(resolve("m1", 2, 6), 3, 2)
    b = walk_bundle(resolve("m1", 2, 6), 3, 2)
    for ta, tb in zip(a, b):
        assert ta.offsets == tb.offsets
        assert np.array_equal(ta.points, tb.points)
        assert ta.values == tb.values


def test_default_step_scales_with_box_diagonal():
    assert default_step(_unit_box_instance(4)) == pytest.approx(
        0.02 * np.linalg.norm(np.full(4, 2.0)) / 2.0)


def test_value_changes_only_with_grid_changes():
    # grid-measure landscapes are step functions of the decoded level
    inst = resolve("m4", 1, 10)
    for seed in range(3):
        (trace,) = walk_bundle(inst, seed, 1)
        grids = [decode_instance_level(inst, p) for p in trace.points]
        for i in range(1, len(trace.values)):
            if trace.values[i] != trace.values[i - 1]:
                assert grids[i] != grids[i - 1]


@pytest.mark.parametrize("name", ("m5", "m13"))  # a grid measure; concat + astar
def test_walk_values_equal_pointwise_evaluate(name):
    inst = resolve(name, 1, 10)
    for trace in walk_bundle(inst, 11, 3):
        assert list(trace.values) == [evaluate(inst, p) for p in trace.points]


# m1..m10 score the decoded grid without an agent, so their walks are cheap
_WALK_PROBLEMS = (tuple(f"m{i}" for i in range(1, 11)) + BASELINE_NAMES
                  + tuple(f"shekel-{p}" for p in SHEKEL_PEAK_COUNTS))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(_WALK_PROBLEMS), d=st.integers(2, 6),
       anchor_seed=st.integers(0, 2 ** 16), directions=st.integers(1, 3),
       scale=st.floats(0.25, 4.0))
@example(name="m1", d=5, anchor_seed=0, directions=2, scale=1.0)
def test_every_walk_point_stays_inside_the_box(name, d, anchor_seed,
                                               directions, scale):
    inst = resolve(name, 1, d)
    box = inst.domain
    for trace in walk_bundle(inst, anchor_seed, directions,
                             scale * default_step(inst)):
        for p in trace.points:
            assert box.contains(p)


# --- walk offsets against the bound-and-fix-up reference ---------------------

def _reference_walk(box, spec):
    """Offsets and points of diagonal_walk as it found them before its one
    containment test: per-coordinate bounds, settled by stepping each end
    until the next point leaves the box and the last one lies inside."""
    anchor, direction = spec.anchor, spec.direction

    def at(k):
        return anchor + (k * spec.step) * direction

    k_lo, k_hi = -math.inf, math.inf
    # a tiny direction component overflows its bracket to +-inf on purpose
    with np.errstate(over="ignore", divide="ignore"):
        for i in range(box.dimension):
            move = spec.step * direction[i]
            if move == 0.0:
                continue
            a = (box.lower[i] - anchor[i]) / move
            b = (box.upper[i] - anchor[i]) / move
            k_lo = max(k_lo, min(a, b))
            k_hi = min(k_hi, max(a, b))
    k_min, k_max = math.ceil(k_lo - 1e-9), math.floor(k_hi + 1e-9)
    while box.contains(at(k_max + 1)):
        k_max += 1
    while k_max > 0 and not box.contains(at(k_max)):
        k_max -= 1
    while box.contains(at(k_min - 1)):
        k_min -= 1
    while k_min < 0 and not box.contains(at(k_min)):
        k_min += 1
    offsets = tuple(range(k_min, k_max + 1))
    return offsets, np.array([at(k) for k in offsets])


@st.composite
def _walk_specs(draw):
    """A baseline instance of dimension 1..11 and a walk through it: anchors
    inside or on the faces, directions with zero entries or along an axis,
    steps from 1e-3 to 7."""
    name = draw(st.sampled_from(("sphere", "rastrigin", "rosenbrock",
                                 "shekel-5")))
    d = draw(st.integers(1, 11))
    inst = resolve(name, 1, d)
    box = inst.domain
    u = np.array(draw(st.lists(st.one_of(st.just(0.0), st.just(1.0),
                                         st.floats(0.0, 1.0)),
                               min_size=d, max_size=d)))
    anchor = np.clip(box.lower + u * (box.upper - box.lower),
                     box.lower, box.upper)
    direction = np.array(draw(st.lists(st.one_of(st.just(0.0),
                                                 st.floats(-1.0, 1.0)),
                                       min_size=d, max_size=d)))
    if draw(st.booleans()) or np.linalg.norm(direction) == 0.0:
        direction = np.zeros(d)
        direction[draw(st.integers(0, d - 1))] = draw(st.sampled_from((-1, 1)))
    step = 10.0 ** draw(st.floats(-3.0, math.log10(7.0)))
    return inst, WalkSpec(anchor, direction, step)


@settings(max_examples=200, deadline=None)
@given(case=_walk_specs())
@example(case=(resolve("sphere", 1, 2),  # rounds onto its face for 10 steps
               WalkSpec(np.full(2, -5.0), np.array([3.7e-225, -1.0]), 1.0)))
def test_walk_offsets_and_points_match_the_reference(case):
    inst, spec = case
    trace = diagonal_walk(inst, spec)
    offsets, points = _reference_walk(inst.domain, spec)
    assert trace.offsets == offsets
    assert 0 in offsets
    assert trace.points.shape == points.shape
    assert trace.points.tobytes() == points.tobytes()
