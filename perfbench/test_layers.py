"""Tests of the benchmark's layer trace.

Run from the root of a checkout:  python3 -m pytest perfbench/test_layers.py
"""
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402
from landscape_atlas.ela import sampling  # noqa: E402
from landscape_atlas.problems import core  # noqa: E402


def _targets():
    """Every (owner, key) -> object the tracer may replace."""
    owners = {id(core._GRID_MEASURES): core._GRID_MEASURES}
    for module in (core, layers.sim, layers.sampling, layers.features,
                   layers.walks, layers.forest, layers.models,
                   layers.similarity):
        owners[id(module)] = module
    snapshot = {}
    for owner in owners.values():
        items = owner.items() if isinstance(owner, dict) else vars(owner).items()
        for key, value in list(items):
            if callable(value):
                snapshot[(id(owner), key)] = value
    return snapshot


def test_tracer_restores_every_wrapped_attribute():
    before = _targets()
    tracer = layers.Tracer()
    with tracer:
        during = _targets()
    assert tracer.unwrapped == []
    replaced = [k for k, v in during.items() if v is not before[k]]
    # decoder, 5 grid measures, simulate, 2 agents, 3 evaluate bindings,
    # 2 baselines, sampling, features, 2 walks, grow_tree, forest_votes,
    # lofo_cv, 2 t-SNE
    assert len(replaced) == 23
    assert all(during[k].__wrapped__ is before[k] for k in replaced)
    assert _targets() == before


def test_tracer_restores_after_an_error():
    before = _targets()
    with pytest.raises(RuntimeError):
        with layers.Tracer():
            raise RuntimeError("boom")
    assert _targets() == before


def test_counts_ratios_and_self_time_on_repeated_points():
    inst = core.resolve("m11", 1, 10)  # astar basicFitness, overworld
    X = np.random.default_rng(0).uniform(-1.0, 1.0, size=(3, 10))
    points = np.vstack([X, X])
    workloads.reset_sim_memo()
    plain = [core.evaluate(inst, x) for x in points]
    workloads.reset_sim_memo()
    tracer = layers.Tracer()
    with tracer:
        t = time.perf_counter()
        traced = [core.evaluate(inst, x) for x in points]
        wall = time.perf_counter() - t
    m = tracer.metrics()
    assert traced == plain
    assert m["problems.evals"] == 6
    assert m["decoder.calls"] == 6
    assert m["decoder.distinct_ratio"] == pytest.approx(0.5)
    assert m["sim.astar.calls"] == 6
    assert m["sim.repeat_ratio"] == pytest.approx(0.5)
    assert m["sim.astar.runs"] <= 3  # the memo answers the repeats
    assert m["metrics.calls"] == 0 and m["features.calls"] == 0
    assert 0.0 < sum(tracer.self_s.values()) <= wall


def test_traced_lhs_sample_matches_untraced():
    inst = core.resolve("sphere", 2, 4)
    plain = sampling.lhs_sample(inst, 20, 3)
    tracer = layers.Tracer()
    with tracer:
        traced = sampling.lhs_sample(inst, 20, 3)
    assert np.array_equal(plain.y, traced.y)
    m = tracer.metrics()
    assert m["problems.evals"] == m["baselines.calls"] == 20
    assert m["sampling.self_s"] > 0.0
