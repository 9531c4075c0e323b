"""The benchmark's four workloads.

Each workload is built from the workload seed.  ``setup()`` resolves the
problem instances and warms the library's lazy caches by evaluating every
instance once; ``prepare(p)`` derives the inputs of pass ``p`` from the seed;
``run(inputs)`` does one pass of library work, checks its outputs and hashes
them.  Every pass gets fresh inputs, so no cache can carry a result from one
pass into the next.  Library functions are looked up through their modules at
call time so the layer trace can wrap them.

* ``survey``: LHS plus features for m1..m28 x instances 1..3 (d=10, n=500),
  problem-major as the CLI orders it.  Three instances put more than 8192
  simulations between two uses of one grid, so the simulator's memo misses.
* ``walks``: 3-direction walk bundles through m1..m28 x instances 1..7.  The
  same decoder and simulator work as ``survey``, but repeats come close
  together and the memo catches them.
* ``optimize``: a (1+1)-ES of 300 single-point evaluations per problem on
  m1..m28; each point depends on the last result, so nothing is shared.
* ``atlas``: the 160-row baseline corpus, LOFO-CV on its 80 labelled rows
  (separability at 200 trees; a permuted 5-class labelling at 25 trees) and
  five t-SNE maps at perplexity 30.  The mario layers are idle.
"""
from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from landscape_atlas import similarity, walks
from landscape_atlas._seeds import NS_WALK, rng_for
from landscape_atlas.ela import features, sampling
from landscape_atlas.mario import sim
from landscape_atlas.problems import core
from landscape_atlas.properties import corpus, models

import hostspeed

DIM = 10
N_POINTS = 500
MARIO = tuple(f"m{i}" for i in range(1, 29))
N_FEATURES = 31

# Stage times exclude the reference kernel's samples (see hostspeed.py).
clock = hostspeed.active
# Each workload's HOST_SENSITIVITY is the slope of log pass time on log
# reference-kernel time across runs of unchanged code on the 2-core Xeon VM
# (see hostspeed.py): the Python-bound forest of atlas follows the host's
# speed most, the memory-heavy decoders of walks least.


@dataclass
class Pass:
    """What one pass did.  ``row_s`` is the seconds of the stage that
    produced the rows, and ``row_marks`` bound the reference-kernel samples
    taken during it; ``stages`` holds extra stage times."""
    rows: int
    row_s: float
    row_marks: tuple[int, int]
    evals: int
    attempted: int
    failed: int
    digest: str
    stages: dict[str, float] = field(default_factory=dict)


def _mark() -> int:
    """Index of the next reference-kernel sample."""
    return len(hostspeed.samples)


def pass_seed(seed: int, p: int) -> int:
    """Seed of pass p; pass 0 uses the workload seed itself."""
    return seed + (p << 32)


def clear_caches() -> None:
    """Empty every functools cache in the library and the simulator's
    memo, as a fresh process would have them."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("landscape_atlas"):
            continue
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()
    reset_sim_memo()


def reset_sim_memo() -> None:
    memo = getattr(sim, "_CACHE", None)
    if memo is not None:
        memo.clear()


def _warm(instances) -> None:
    for inst in instances:
        box = inst.domain
        core.evaluate(inst, (box.lower + box.upper) / 2.0)


def _row_ok(row: np.ndarray) -> bool:
    return row.shape == (N_FEATURES,) and bool(np.all(np.isfinite(row)))


def _unit_ok(values: np.ndarray) -> bool:
    return bool(np.all((values >= 0.0) & (values <= 1.0)))


def _feature_row(inst, sample_seed: int, digest) -> tuple:
    """LHS sample plus features for one instance: (vector, sample)."""
    sample = sampling.lhs_sample(inst, N_POINTS, sample_seed)
    fv = features.compute_features(sample, 0)
    digest.update(fv.as_array().tobytes())
    digest.update(",".join(fv.degenerate).encode())
    return fv, sample


class Survey:
    name = "survey"
    HOST_SENSITIVITY = 0.55
    INSTANCES = (1, 2, 3)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.instances = [core.resolve(m, k, DIM)
                          for m in MARIO for k in self.INSTANCES]
        _warm(self.instances)

    def prepare(self, p: int) -> int:
        return pass_seed(self.seed, p)

    def run(self, sample_seed: int) -> Pass:
        digest = hashlib.sha256()
        failed = 0
        t0, m0 = clock(), _mark()
        for inst in self.instances:
            fv, sample = _feature_row(inst, sample_seed, digest)
            failed += not (_row_ok(fv.as_array()) and _unit_ok(sample.y))
        wall = clock() - t0
        n = len(self.instances)
        return Pass(n, wall, (m0, _mark()), n * N_POINTS, n, failed,
                    digest.hexdigest())


class Walks:
    name = "walks"
    HOST_SENSITIVITY = 0.5
    INSTANCES = tuple(range(1, 8))
    DIRECTIONS = 3
    # Anchor seeds are drawn until a bundle has this many points, so every
    # pass walks about the same distance whatever the seed.
    BUNDLE_POINTS = (96, 104)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.instances = [[core.resolve(m, k, DIM) for k in self.INSTANCES]
                          for m in MARIO]
        _warm(inst for row in self.instances for inst in row)

    def _bundle_points(self, anchor_seed: int) -> int:
        """Points of walk_bundle(anchor_seed) over the mario box, from the
        walk geometry alone (no evaluations)."""
        inst = self.instances[0][0]
        box = inst.domain
        step = walks.default_step(inst)
        rng = rng_for(NS_WALK, anchor_seed, DIM)
        anchor = box.lower + rng.uniform(size=DIM) * (box.upper - box.lower)
        total = 0
        for _ in range(self.DIRECTIONS):
            direction = rng.standard_normal(DIM)
            move = step * direction / np.linalg.norm(direction)
            a = (box.lower - anchor) / move
            b = (box.upper - anchor) / move
            k_lo = float(np.max(np.minimum(a, b)))
            k_hi = float(np.min(np.maximum(a, b)))
            total += math.floor(k_hi) - math.ceil(k_lo) + 1
        return total

    def prepare(self, p: int) -> list[int]:
        rng = np.random.default_rng([self.seed, p])
        lo, hi = self.BUNDLE_POINTS
        anchors: list[int] = []
        while len(anchors) < len(self.INSTANCES):
            candidate = int(rng.integers(2 ** 31))
            if lo <= self._bundle_points(candidate) <= hi:
                anchors.append(candidate)
        return anchors

    def run(self, anchors: list[int]) -> Pass:
        digest = hashlib.sha256()
        traces = failed = points = 0
        t0, m0 = clock(), _mark()
        for row in self.instances:
            for inst, anchor_seed in zip(row, anchors):
                box = inst.domain
                for trace in walks.walk_bundle(inst, anchor_seed,
                                               self.DIRECTIONS):
                    values = np.asarray(trace.values)
                    inside = np.all((trace.points >= box.lower)
                                    & (trace.points <= box.upper))
                    failed += not (inside and _unit_ok(values))
                    traces += 1
                    points += len(values)
                    digest.update(trace.points.tobytes())
                    digest.update(values.tobytes())
        wall = clock() - t0
        return Pass(traces, wall, (m0, _mark()), points, traces, failed,
                    digest.hexdigest())


class Optimize:
    name = "optimize"
    HOST_SENSITIVITY = 0.6
    EVALS = 300
    SIGMA = (0.01, 1.0, 0.5)  # floor, cap and start of the step size

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        # Instances cycle through 1..7, so every seed uses the same decoders
        # and only the search itself depends on the seed.
        self.instances = [core.resolve(m, 1 + i % 7, DIM)
                          for i, m in enumerate(MARIO)]
        _warm(self.instances)

    def prepare(self, p: int) -> int:
        return p

    def run(self, p: int) -> Pass:
        """(1+1)-ES with the 1/5th success rule; ties are accepted so the
        search keeps moving across plateaus."""
        digest = hashlib.sha256()
        failed = 0
        lo_sigma, hi_sigma, sigma0 = self.SIGMA
        t0, m0 = clock(), _mark()
        for i, inst in enumerate(self.instances):
            rng = np.random.default_rng([self.seed, p, i])
            box = inst.domain
            x = rng.uniform(box.lower, box.upper)
            fx = core.evaluate(inst, x)
            trail = [fx]
            sigma = sigma0
            for _ in range(self.EVALS - 1):
                y = box.clip(x + sigma * rng.standard_normal(DIM))
                fy = core.evaluate(inst, y)
                trail.append(fy)
                if fy <= fx:
                    x, fx = y, fy
                    sigma = min(hi_sigma, sigma * math.exp(1 / 3))
                else:
                    sigma = max(lo_sigma, sigma * math.exp(-1 / 12))
            values = np.asarray(trail)
            failed += not (_unit_ok(values) and box.contains(x))
            digest.update(values.tobytes())
            digest.update(x.tobytes())
        wall = clock() - t0
        n = len(self.instances)
        return Pass(n, wall, (m0, _mark()), n * self.EVALS, n * self.EVALS,
                    failed, digest.hexdigest())


class Atlas:
    name = "atlas"
    HOST_SENSITIVITY = 0.75
    SHEKEL = tuple(f"shekel-{p}" for p in (3, 5, 7, 10, 20, 30, 40, 50))
    ANALYTIC = ("sphere", "ellipsoid", "rastrigin", "rosenbrock", "ackley",
                "griewank", "schwefel", "linear-slope")
    LABELLED_SEEDS = 5  # instance seeds 1..5 carry the shipped labels
    MAPS = 5
    PERPLEXITY = 30.0
    CLASSES = 5

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        ids = [(fn, k) for fn in self.SHEKEL for k in range(1, 6)]
        ids += [(fn, k) for fn in self.ANALYTIC for k in range(1, 16)]
        self.ids = ids
        self.instances = [core.resolve(fn, k, DIM) for fn, k in ids]
        self.labels = corpus.load_labels()
        _warm(self.instances)

    def prepare(self, p: int) -> tuple[int, list[str]]:
        rng = np.random.default_rng([self.seed, p])
        n = len(self.labels) * self.LABELLED_SEEDS
        permuted = [f"l{i % self.CLASSES}" for i in range(n)]
        rng.shuffle(permuted)
        return pass_seed(self.seed, p), permuted

    def run(self, inputs: tuple[int, list[str]]) -> Pass:
        sample_seed, permuted = inputs
        digest = hashlib.sha256()
        failed = 0
        t0, m0 = clock(), _mark()
        fvs = []
        for inst in self.instances:
            fv, _ = _feature_row(inst, sample_seed, digest)
            failed += not _row_ok(fv.as_array())
            fvs.append(fv)
        corpus_s = clock() - t0
        corpus_marks = (m0, _mark())

        t = clock()
        labelled = [models.LabelledRow(fv, self.labels[fn]["separability"], fn)
                    for fv, (fn, k) in zip(fvs, self.ids)
                    if k <= self.LABELLED_SEEDS]
        shuffled = [models.LabelledRow(r.features, label, r.group)
                    for r, label in zip(labelled, permuted)]
        cvs = [models.lofo_cv(labelled, "separability", train_seed=0),
               models.lofo_cv(shuffled, "shuffled", train_seed=0,
                              n_trees=25)]
        cv_s = clock() - t
        folds = np.array([f.accuracy for cv in cvs for f in cv.folds])
        failed += int(np.count_nonzero((folds < 0.0) | (folds > 1.0)))
        digest.update(folds.tobytes())

        matrix, _ = features.normalize_features(fvs)
        ids = [("baseline", fn, k) for fn, k in self.ids]
        map_s = []
        for embed_seed in range(self.MAPS):
            t = clock()
            emb = similarity.tsne_embed(matrix, ids=ids,
                                        perplexity=self.PERPLEXITY,
                                        embed_seed=embed_seed, trace=True)
            map_s.append(clock() - t)
            kl = np.array([v for _, v in similarity.kl_trace(emb)]
                          + [emb.final_kl])
            failed += not bool(np.all(kl >= 0.0))
            digest.update(emb.coordinates.tobytes())
            digest.update(kl.tobytes())
        attempted = len(fvs) + len(folds) + self.MAPS
        return Pass(len(fvs), corpus_s, corpus_marks, len(fvs) * N_POINTS,
                    attempted, failed, digest.hexdigest(),
                    {"cv_s": cv_s, "map_s": float(np.median(map_s))})


WORKLOADS = {w.name: w for w in (Survey, Walks, Optimize, Atlas)}
