"""Outside-in layer trace for the benchmark.

The library is not instrumented.  A ``Tracer`` swaps module attributes (and
the grid-measure table entries in ``problems.core``) for timing wrappers while
it is active and puts the originals back when it exits, even on error.  Each
wrapper records one span: its duration, minus the time of the wrapped calls
it made, is the self time of its layer.  Counters and ratios are taken at the
same boundaries.

Callers must look library functions up through their module at call time
(``sampling.lhs_sample(...)``), which is how the benchmark's workloads call
them; modules that bound a function at import are wrapped where they hold it.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict

import numpy as np

from landscape_atlas.ela import features, sampling
from landscape_atlas.mario import sim
from landscape_atlas.problems import core
from landscape_atlas.properties import forest, models
from landscape_atlas import similarity, walks

#: Per-layer metrics in report order: (name, unit, better).
PER_LAYER = (
    ("decoder.calls", "count", "lower"),
    ("decoder.self_s", "s", "lower"),
    ("decoder.distinct_ratio", "ratio", "higher"),
    ("sim.astar.calls", "count", "lower"),
    ("sim.astar.runs", "count", "lower"),
    ("sim.astar.self_s", "s", "lower"),
    ("sim.scared.calls", "count", "lower"),
    ("sim.scared.runs", "count", "lower"),
    ("sim.scared.self_s", "s", "lower"),
    ("sim.repeat_ratio", "ratio", "lower"),
    ("metrics.calls", "count", "lower"),
    ("metrics.self_s", "s", "lower"),
    ("problems.evals", "count", "lower"),
    ("problems.self_s", "s", "lower"),
    ("baselines.calls", "count", "lower"),
    ("baselines.self_s", "s", "lower"),
    ("sampling.self_s", "s", "lower"),
    ("features.calls", "count", "lower"),
    ("features.self_s", "s", "lower"),
    ("features.degenerate_ratio", "ratio", "lower"),
    ("walks.calls", "count", "lower"),
    ("walks.points", "count", "lower"),
    ("walks.self_s", "s", "lower"),
    ("forest.trees", "count", "lower"),
    ("forest.nodes", "count", "lower"),
    ("forest.grow_s", "s", "lower"),
    ("forest.votes.calls", "count", "lower"),
    ("forest.votes.self_s", "s", "lower"),
    ("models.self_s", "s", "lower"),
    ("tsne.bisection.calls", "count", "lower"),
    ("tsne.bisection.self_s", "s", "lower"),
    ("tsne.bisection.miss_ratio", "ratio", "lower"),
    ("tsne.descent.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Layer whose accumulated self time each "*_s" metric reports.
_SELF_TIME = {
    "decoder.self_s": "decoder",
    "sim.astar.self_s": "sim.astar",
    "sim.scared.self_s": "sim.scared",
    "metrics.self_s": "metrics",
    "problems.self_s": "problems",
    "baselines.self_s": "baselines",
    "sampling.self_s": "sampling",
    "features.self_s": "features",
    "walks.self_s": "walks",
    "forest.grow_s": "forest.grow",
    "forest.votes.self_s": "forest.votes",
    "models.self_s": "models",
    "tsne.bisection.self_s": "tsne.bisection",
    "tsne.descent.self_s": "tsne.descent",
}

# A returned conditional whose perplexity is further than this from the
# target counts as a bisection miss (the library's own tolerance).
_PERPLEXITY_TOL = 1e-4


def _cells(grid) -> bytes:
    return grid.cells.tobytes()


def _row_perplexity(p: np.ndarray) -> float:
    nz = p[p > 0.0]
    return float(2.0 ** -np.sum(nz * np.log2(nz)))


class Tracer:
    """Context manager that times the library's layers for one pass at a
    time: ``reset()`` before a pass, ``metrics()`` after it."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.unwrapped: list[str] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._grids: set[bytes] = set()
        self._sims: set[tuple[str, bytes]] = set()

    def reset(self) -> None:
        """Forget the last pass; the wrappers keep these same containers."""
        for record in (self.self_s, self.counts, self._stack, self._grids,
                       self._sims):
            record.clear()

    # -- wrapping -------------------------------------------------------

    def _span(self, original, layer, after=None):
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            children = [0.0]
            stack.append(children)
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            name = layer(args) if callable(layer) else layer
            self_s[name] += (t1 - t0) - children[0]
            if after is not None:
                after(args, result)
            if stack:
                # the parent excludes this span and its bookkeeping
                stack[-1][0] += clock() - t0
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _patch(self, owner, key: str, layer, after=None) -> None:
        is_table = isinstance(owner, dict)
        original = owner.get(key) if is_table else getattr(owner, key, None)
        if original is None:
            self.unwrapped.append(key)
            return
        wrapper = self._span(original, layer, after)
        if is_table:
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)
        self._saved.append((owner, key, original))

    def __enter__(self) -> "Tracer":
        self.unwrapped = []
        count = self.counts

        def decoded(args, grid):
            count["decoder.calls"] += 1
            self._grids.add(_cells(grid))

        def simulated(args, result):
            grid, agent = args[0], args[1]
            count[f"sim.{agent}.calls"] += 1
            key = (agent, _cells(grid))
            if key in self._sims:
                count["sim.repeats"] += 1
            else:
                self._sims.add(key)

        def counter(name):
            return lambda args, result: count.update((name,))

        def walked(args, trace):
            count["walks.calls"] += 1
            count["walks.points"] += len(trace.values)

        def featured(args, fv):
            count["features.calls"] += 1
            if fv.degenerate:
                count["features.degenerate"] += 1

        def grown(args, tree):
            count["forest.trees"] += 1
            count["forest.nodes"] += len(tree.feature)

        def bisected(args, result):
            count["tsne.bisection.calls"] += 1
            target = args[1]
            if abs(_row_perplexity(result[1]) - target) > _PERPLEXITY_TOL:
                count["tsne.bisection.misses"] += 1

        patch = self._patch
        patch(core, "decode_level", "decoder", decoded)
        for measure in list(core._GRID_MEASURES):
            patch(core._GRID_MEASURES, measure, "metrics",
                  counter("metrics.calls"))
        patch(core, "simulate", lambda args: f"sim.{args[1]}", simulated)
        patch(sim, "_run_astar", "sim.astar", counter("sim.astar.runs"))
        patch(sim, "_run_scared", "sim.scared", counter("sim.scared.runs"))
        for owner in (core, sampling, walks):
            patch(owner, "evaluate", "problems", counter("problems.evals"))
        patch(core, "baseline_eval", "baselines", counter("baselines.calls"))
        patch(core, "shekel_eval", "baselines", counter("baselines.calls"))
        patch(sampling, "lhs_sample", "sampling")
        patch(features, "compute_features", "features", featured)
        patch(walks, "walk_bundle", "walks")
        patch(walks, "diagonal_walk", "walks", walked)
        patch(forest, "grow_tree", "forest.grow", grown)
        patch(models, "forest_votes", "forest.votes",
              counter("forest.votes.calls"))
        patch(models, "lofo_cv", "models")
        patch(similarity, "tsne_embed", "tsne.descent")
        patch(similarity, "bandwidth_bisection", "tsne.bisection", bisected)
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass since the last ``reset()``; idle
        layers report 0 for their counts, times and ratios."""
        c = self.counts
        sims = c["sim.astar.calls"] + c["sim.scared.calls"]
        out: dict[str, float] = {}
        for name, _, _ in PER_LAYER:
            if name in _SELF_TIME:
                out[name] = self.self_s.get(_SELF_TIME[name], 0.0)
            else:
                out[name] = float(c[name])
        out["decoder.distinct_ratio"] = _ratio(len(self._grids),
                                               c["decoder.calls"])
        out["sim.repeat_ratio"] = _ratio(c["sim.repeats"], sims)
        out["features.degenerate_ratio"] = _ratio(c["features.degenerate"],
                                                  c["features.calls"])
        out["tsne.bisection.miss_ratio"] = _ratio(
            c["tsne.bisection.misses"], c["tsne.bisection.calls"])
        return out


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
