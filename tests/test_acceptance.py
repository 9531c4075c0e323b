"""End-to-end acceptance checks.

Each test is one numbered criterion with its own runtime budget; a PASS line
with the measured time is printed per criterion (visible with pytest -s/-rP).
The 196 level-generation feature vectors are computed once in a session
fixture and shared by criteria 7, 9, 10 and 13; the fixture records its own
elapsed time so criterion 7 still reports the true pipeline cost.
"""
import hashlib
import itertools
import json
import os
import time
from heapq import heappop, heappush

import numpy as np
import pytest

from landscape_atlas.cli import main
from landscape_atlas.ela import (
    FEATURE_NAMES, SampleSet, compute_features, lhs_points, lhs_sample,
    meta_model_r2, nearest_better_ratio, normalize_features,
)
from landscape_atlas.mario import tiles
from landscape_atlas.mario.metrics import (
    decoration_frequency, enemy_distribution, leniency, negative_space,
    position_distribution,
)
from landscape_atlas.mario.sim import (
    ASTAR, SimulationResult, air_time, basic_fitness, simulate, time_taken,
)
from landscape_atlas.mario.tiles import HAZARD_MASK, STANDABLE_MASK, TileGrid
from landscape_atlas.problems import decode_instance_level, evaluate, resolve
from landscape_atlas.properties import (
    CORPUS_INSTANCE_SEEDS, PROPERTY_NAMES, LabelledRow, build_labelled_rows,
    load_labels, lofo_cv, train,
)
from landscape_atlas.properties.models import _vote
from landscape_atlas.similarity import bandwidth_bisection, kl_trace, tsne_embed
from landscape_atlas.walks import walk_bundle
from test_golden import GOLDEN, skip_off_the_pinned_stack

MARIO_DIM = 10
MARIO_N = 500
MARIO_INSTANCES = range(1, 8)
MARIO_PROBLEMS = [f"m{i}" for i in range(1, 29)]


def _report(number: int, elapsed: float, budget: float, text: str) -> None:
    print(f"[criterion {number:2d}] PASS {elapsed:7.2f}s "
          f"(budget {budget:.0f}s) — {text}")
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


# ---------------------------------------------------------------------------
# shared session fixtures

@pytest.fixture(scope="session")
def mario_features():
    """(feature vectors, id triples, elapsed seconds) for m1..m28 x 7."""
    start = time.perf_counter()
    fvs, ids = [], []
    for problem in MARIO_PROBLEMS:
        for seed in MARIO_INSTANCES:
            sample = lhs_sample(resolve(problem, seed, MARIO_DIM), MARIO_N, 1)
            fvs.append(compute_features(sample, 0))
            ids.append(("mario", problem, seed))
    return fvs, ids, time.perf_counter() - start


@pytest.fixture(scope="session")
def corpus(mario_features):
    """356-row normalized feature matrix: 196 mario + 40 shekel + 120
    analytic baseline rows, plus id triples, the 356 feature vectors and
    the extra build time."""
    fvs, ids, _ = mario_features
    fvs, ids = list(fvs), list(ids)
    start = time.perf_counter()
    for peaks in (3, 5, 7, 10, 20, 30, 40, 50):
        for seed in range(1, 6):
            inst = resolve(f"shekel-{peaks}", seed, MARIO_DIM)
            fvs.append(compute_features(lhs_sample(inst, MARIO_N, 1), 0))
            ids.append(("baseline", f"shekel-{peaks}", seed))
    for name in ("sphere", "ellipsoid", "rastrigin", "rosenbrock", "ackley",
                 "griewank", "schwefel", "linear-slope"):
        for seed in range(1, 16):
            inst = resolve(name, seed, MARIO_DIM)
            fvs.append(compute_features(lhs_sample(inst, MARIO_N, 1), 0))
            ids.append(("baseline", name, seed))
    matrix, _ = normalize_features(fvs)
    return matrix, ids, fvs, time.perf_counter() - start


@pytest.fixture(scope="session")
def embeddings(corpus):
    """Five seeded 1000-iteration embeddings of the 356-row corpus."""
    matrix, ids, _, _ = corpus
    start = time.perf_counter()
    out = [tsne_embed(matrix, ids=ids, perplexity=30.0, embed_seed=s,
                      iterations=1000, trace=True) for s in range(5)]
    return out, time.perf_counter() - start


# ---------------------------------------------------------------------------
# criterion 1: hand-computed oracles for all eight fitness formulas

def _grid_of(fill, h, w):
    return TileGrid(np.full((h, w), fill, dtype=np.int8))


def test_criterion_01_formula_oracles():
    start = time.perf_counter()
    tol = 1e-12

    def near(a, b):
        assert abs(a - b) <= tol, (a, b)

    # enemy distribution: 1 - sd(x) / ((w-1)/2)
    m = np.full((3, 28), tiles.AIR, dtype=np.int8)
    m[1, 0] = m[1, 27] = tiles.ENEMY
    near(enemy_distribution(TileGrid(m)), 0.0)
    m = np.full((3, 28), tiles.AIR, dtype=np.int8)
    m[1, 13] = tiles.ENEMY
    near(enemy_distribution(TileGrid(m)), 1.0)
    near(enemy_distribution(_grid_of(tiles.AIR, 3, 28)), 1.0)
    m = np.full((2, 5), tiles.AIR, dtype=np.int8)
    m[0, 0] = m[0, 4] = tiles.ENEMY
    near(enemy_distribution(TileGrid(m)), 0.0)
    m = np.full((2, 5), tiles.AIR, dtype=np.int8)
    m[0, 0] = m[0, 2] = m[0, 4] = tiles.ENEMY
    near(enemy_distribution(TileGrid(m)), 1.0 - np.sqrt(8.0 / 3.0) / 2.0)

    # position distribution: 1 - sd(y of standable) / ((h-1)/2)
    m = np.full((14, 4), tiles.AIR, dtype=np.int8)
    m[0, :2] = tiles.GROUND
    m[13, :2] = tiles.GROUND
    near(position_distribution(TileGrid(m)), 0.0)
    m = np.full((14, 4), tiles.AIR, dtype=np.int8)
    m[5, :] = tiles.PLATFORM
    near(position_distribution(TileGrid(m)), 1.0)
    near(position_distribution(_grid_of(tiles.AIR, 14, 4)), 1.0)
    m = np.full((3, 2), tiles.AIR, dtype=np.int8)
    m[0, 0] = m[2, 0] = tiles.GROUND
    near(position_distribution(TileGrid(m)), 0.0)
    m = np.full((5, 3), tiles.AIR, dtype=np.int8)
    m[0, 0] = m[2, 0] = m[4, 0] = tiles.GROUND
    near(position_distribution(TileGrid(m)), 1.0 - np.sqrt(8.0 / 3.0) / 2.0)

    # decoration frequency: 1 - n_pt / n_tot
    near(decoration_frequency(_grid_of(tiles.GROUND, 4, 7)), 1.0)
    near(decoration_frequency(_grid_of(tiles.DESTRUCTIBLE, 4, 7)), 0.0)
    m = np.full((14, 28), tiles.AIR, dtype=np.int8)
    m.ravel()[:98] = tiles.QUESTION_COIN
    near(decoration_frequency(TileGrid(m)), 0.75)
    m = np.full((2, 2), tiles.AIR, dtype=np.int8)
    m[0, 0] = tiles.TUBE_BODY
    near(decoration_frequency(TileGrid(m)), 0.75)
    m = np.full((2, 3), tiles.GROUND, dtype=np.int8)
    m[0, :] = tiles.ENEMY
    near(decoration_frequency(TileGrid(m)), 0.5)

    # negative space: 1 - n_st / n_tot
    near(negative_space(_grid_of(tiles.GROUND, 3, 5)), 0.0)
    near(negative_space(_grid_of(tiles.AIR, 3, 5)), 1.0)
    near(negative_space(_grid_of(tiles.COIN, 3, 5)), 1.0)  # coins not standable
    m = np.full((2, 5), tiles.AIR, dtype=np.int8)
    m[1, :] = tiles.PLATFORM
    near(negative_space(TileGrid(m)), 0.5)
    m = np.full((3, 4), tiles.AIR, dtype=np.int8)
    m[2, :] = tiles.BULLET_BILL
    near(negative_space(TileGrid(m)), 1.0 - 4.0 / 12.0)

    # leniency: ((clamped v / n_tot) + 1) / 2
    near(leniency(_grid_of(tiles.GROUND, 4, 7)).value, 0.5)
    near(leniency(_grid_of(tiles.QUESTION_POWERUP, 4, 7)).value, 1.0)
    near(leniency(_grid_of(tiles.ENEMY, 4, 7)).value, 0.0)
    m = np.full((2, 7), tiles.AIR, dtype=np.int8)
    m[1, :] = tiles.GROUND
    m[1, 2] = m[1, 3] = tiles.AIR  # one gap: v = -(1/2) - 2
    near(leniency(TileGrid(m)).value, (-2.5 / 14.0 + 1.0) / 2.0)
    m = np.full((4, 5), tiles.GROUND, dtype=np.int8)
    m[0, 0] = m[0, 1] = tiles.QUESTION_POWERUP
    m[0, 2] = tiles.ENEMY  # v = 2 - 1 = 1 over 20 tiles
    near(leniency(TileGrid(m)).value, (1.0 / 20.0 + 1.0) / 2.0)

    # basic fitness: clamp(((d - t + coins + 5000*won)/5000 + 0.04) / 1.26)
    def res(d, t, coins, won, t_max=1000):
        return SimulationResult(d, t, coins, 0, t, t_max, won)

    near(basic_fitness(res(100, 50, 3, True)), (5053.0 / 5000.0 + 0.04) / 1.26)
    near(basic_fitness(res(10, 10, 0, False)), 0.04 / 1.26)
    near(basic_fitness(res(0, 200, 0, False)), 0.0)
    near(basic_fitness(res(5000, 1, 0, True)), 1.0)  # clamped above
    near(basic_fitness(res(30, 40, 5, False)), (-5.0 / 5000.0 + 0.04) / 1.26)

    # air time: t_g / t_tot if won else 1
    def res_g(t_g, t_tot, won):
        return SimulationResult(5, t_tot, 0, t_g, t_tot, 1000, won)

    near(air_time(res_g(30, 100, True)), 0.3)
    near(air_time(res_g(25, 25, True)), 1.0)
    near(air_time(res_g(3, 10, False)), 1.0)
    near(air_time(res_g(1, 4, True)), 0.25)
    near(air_time(res_g(0, 10, True)), 0.0)

    # time taken: 1 - t_tot / t_max if won else 1
    def res_t(t_tot, t_max, won):
        return SimulationResult(5, t_tot, 0, 0, t_tot, t_max, won)

    near(time_taken(res_t(400, 400, True)), 0.0)
    near(time_taken(res_t(200, 400, True)), 0.5)
    near(time_taken(res_t(40, 400, False)), 1.0)
    near(time_taken(res_t(100, 400, True)), 0.75)
    near(time_taken(res_t(1, 8, True)), 1.0 - 1.0 / 8.0)

    _report(1, time.perf_counter() - start, 1.0,
            "eight fitness formulas match hand-computed values to 1e-12")


# ---------------------------------------------------------------------------
# criterion 2: grid-measure landscapes are step functions of the level

def test_criterion_02_step_structure():
    start = time.perf_counter()
    violations = 0
    points_checked = 0
    for index in range(1, 11):
        inst = resolve(f"m{index}", 1, MARIO_DIM)
        for anchor_seed in range(1, 21):
            (trace,) = walk_bundle(inst, anchor_seed, 1)
            grids = [decode_instance_level(inst, p) for p in trace.points]
            for k in range(1, len(trace.values)):
                points_checked += 1
                if trace.values[k] != trace.values[k - 1] and grids[k] == grids[k - 1]:
                    violations += 1
    assert violations == 0
    assert points_checked > 1000
    _report(2, time.perf_counter() - start, 30.0,
            f"fitness changes only with grid changes on 200 walks "
            f"({points_checked} steps, 0 violations)")


# ---------------------------------------------------------------------------
# criterion 3: underground levels have less negative space than overworld

def test_criterion_03_overworld_underground_ordering():
    start = time.perf_counter()
    for seed in MARIO_INSTANCES:
        over = resolve("m7", seed, MARIO_DIM)
        under = resolve("m8", seed, MARIO_DIM)
        latents = np.random.default_rng(seed).uniform(-1.0, 1.0,
                                                      (200, MARIO_DIM))
        vals_over = [evaluate(over, z) for z in latents]
        vals_under = [evaluate(under, z) for z in latents]
        assert np.median(vals_under) < np.median(vals_over), seed
    _report(3, time.perf_counter() - start, 30.0,
            "median negative space: underground < overworld for seeds 1-7")


# ---------------------------------------------------------------------------
# criterion 4: the reactive agent is more sensitive than the planner

def test_criterion_04_agent_sensitivity():
    start = time.perf_counter()
    diffs = {"m11": [], "m15": []}
    for problem in ("m11", "m15"):
        inst = resolve(problem, 1, MARIO_DIM)
        for anchor_seed in range(1, 21):
            (trace,) = walk_bundle(inst, anchor_seed, 1)
            v = np.asarray(trace.values)
            diffs[problem].extend(np.abs(np.diff(v)))
    scared = float(np.mean(diffs["m15"]))
    astar = float(np.mean(diffs["m11"]))
    assert scared >= astar, (scared, astar)
    _report(4, time.perf_counter() - start, 300.0,
            f"mean |step change| scared {scared:.4f} >= astar {astar:.4f} "
            "on 20 shared walks")


# ---------------------------------------------------------------------------
# criterion 5: ELA exactness against closed forms and a brute-force oracle

def test_criterion_05_ela_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    for _ in range(100):
        d = int(rng.integers(1, 11))
        n = max(2 * d + 5, 8 * d)
        X = rng.uniform(-4.0, 4.0, (n, d))
        beta = rng.normal(size=d)
        gamma = rng.normal(size=d) + 0.1
        y = float(rng.normal()) + X @ beta + (X ** 2) @ gamma
        r2 = meta_model_r2(SampleSet(X, y))
        assert abs(r2 - 1.0) <= 1e-9

    def brute(X, y):
        n = len(y)
        nn, nb = [], []
        for i in range(n):
            d_all = [float(np.linalg.norm(X[i] - X[j]))
                     for j in range(n) if j != i]
            nn.append(min(d_all))
            better = [float(np.linalg.norm(X[i] - X[j]))
                      for j in range(n) if y[j] < y[i]]
            if better:
                nb.append(min(better))
        return float(np.mean(nn) / np.mean(nb))

    for _ in range(200):
        n = int(rng.integers(3, 65))
        d = max(1, min(int(rng.integers(1, 6)), n // 2))
        X = rng.uniform(-5.0, 5.0, (n, d))
        y = rng.normal(size=n)
        s = SampleSet(X, y)
        assert abs(nearest_better_ratio(s) - brute(s.X, s.y)) <= 1e-12
    _report(5, time.perf_counter() - start, 10.0,
            "quadratic R^2 exact on 100 instances; NBC matches brute force "
            "on 200 samples")


# ---------------------------------------------------------------------------
# criterion 6: latin hypercube stratification

def test_criterion_06_lhs_stratification():
    start = time.perf_counter()
    combos = list(itertools.product((10, 100, 500), (2, 10)))
    for design in range(50):
        n, d = combos[design % len(combos)]
        lower, upper = np.full(d, -3.0), np.full(d, 7.0)
        X = lhs_points(n, d, lower, upper, sample_seed=design)
        for j in range(d):
            strata = np.floor((X[:, j] + 3.0) / 10.0 * n).astype(int)
            assert sorted(strata) == list(range(n)), (design, j)
    _report(6, time.perf_counter() - start, 5.0,
            "one point per stratum in every dimension of 50 designs")


# ---------------------------------------------------------------------------
# criterion 7: full feature pipeline at survey scale

def test_criterion_07_full_feature_pipeline(mario_features, tmp_path):
    fvs, ids, elapsed_serial = mario_features
    assert len(fvs) == 196 and len(ids) == 196
    for fv in fvs:
        arr = fv.as_array()
        assert arr.shape == (31,)
        assert np.all(np.isfinite(arr))
    assert elapsed_serial < 20 * 60.0

    # the same survey through the CLI with worker processes
    out_dir = tmp_path / "survey"
    start = time.perf_counter()
    code = main(["features", "--problem", "mario", "--instance", "1-7",
                 "--dim", str(MARIO_DIM), "--n", str(MARIO_N),
                 "--sample-seed", "1", "--feature-seed", "0",
                 "--jobs", "8", "--out-dir", str(out_dir)])
    elapsed_jobs = time.perf_counter() - start
    assert code == 0
    files = sorted(out_dir.iterdir())
    assert len(files) == 196
    doc = json.loads((out_dir / "m1-i1.json").read_text())
    assert doc["features"] == fvs[0].values
    assert elapsed_jobs < 5 * 60.0
    _report(7, elapsed_serial + elapsed_jobs, 25 * 60.0,
            f"196 finite feature vectors (serial {elapsed_serial:.0f}s, "
            f"--jobs 8 {elapsed_jobs:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 8: property classifier beats the majority class and collapses
# to chance on permuted labels

def test_criterion_08_classifier_sanity():
    start = time.perf_counter()
    table = load_labels()
    rows = build_labelled_rows("separability")
    assert len(rows) == 80 and len({r.group for r in rows}) == 16

    def relabel(property_name):
        return [LabelledRow(r.features, table[r.group][property_name], r.group)
                for r in rows]

    for prop in ("separability", "multimodality"):
        labelled = relabel(prop)
        counts = {}
        for r in labelled:
            counts[r.label] = counts.get(r.label, 0) + 1
        majority = max(counts.values()) / len(labelled)
        cv = lofo_cv(labelled, prop, train_seed=0)
        assert cv.mean_accuracy >= majority + 0.10, (
            prop, cv.mean_accuracy, majority)

    # permutation baseline: balanced 5-value labels, accuracy near 1/5
    base_labels = [f"l{i % 5}" for i in range(len(rows))]
    for shuffle_seed in range(20):
        rng = np.random.default_rng(shuffle_seed)
        shuffled = list(base_labels)
        rng.shuffle(shuffled)
        permuted = [LabelledRow(r.features, lab, r.group)
                    for r, lab in zip(rows, shuffled)]
        cv = lofo_cv(permuted, "shuffled", train_seed=0, n_trees=25)
        assert abs(cv.mean_accuracy - 0.2) <= 0.15, (
            shuffle_seed, cv.mean_accuracy)
    _report(8, time.perf_counter() - start, 120.0,
            "LOFO-CV beats majority by >= 0.10 on separability and "
            "multimodality; permuted labels score at chance")


# ---------------------------------------------------------------------------
# criterion 9: t-SNE contracts on the full 356-row corpus

def test_criterion_09_tsne_contracts(corpus, embeddings):
    matrix, ids, _, corpus_extra = corpus
    embs, embed_elapsed = embeddings
    start = time.perf_counter()
    assert matrix.shape[0] == 356 and len(ids) == 356
    assert len(set(ids)) == 356  # each instance appears exactly once
    assert sum(1 for s, _, _ in ids if s == "mario") == 196

    for emb in embs:
        trace = dict(kl_trace(emb))
        assert len(trace) == 20
        assert all(kl >= 0.0 for kl in trace.values())
        assert trace[1000] < trace[300]
        assert emb.final_kl >= 0.0

    # bandwidth bisection on a constructed equidistant input: the uniform
    # conditional is the only reachable distribution, so the target entropy
    # is log2(neighbour count)
    n_neighbours = 11
    d2 = np.full(n_neighbours, 3.5)
    _, p = bandwidth_bisection(d2, float(n_neighbours))
    entropy = float(-np.sum(p * np.log2(p)))
    assert abs(entropy - np.log2(n_neighbours)) <= 1e-3
    elapsed = corpus_extra + embed_elapsed + (time.perf_counter() - start)
    _report(9, elapsed, 180.0,
            "KL trace nonnegative and decreasing over 5 seeds; bisection "
            "hits the equidistant target entropy")


# ---------------------------------------------------------------------------
# criterion 10: instances of the same problem embed near each other

def test_criterion_10_instance_cohesion(embeddings):
    embs, _ = embeddings
    start = time.perf_counter()
    ratios = []
    for emb in embs:
        coords = {}
        for row in emb.rows:
            if row.suite == "mario":
                coords.setdefault(row.problem, []).append((row.u, row.v))
        intra = []
        for pts in coords.values():
            pts = np.asarray(pts)
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    intra.append(np.linalg.norm(pts[i] - pts[j]))
        problems = sorted(coords)
        inter = []
        for a in range(len(problems)):
            for b in range(a + 1, len(problems)):
                for p in coords[problems[a]]:
                    for q in coords[problems[b]]:
                        inter.append(np.linalg.norm(np.subtract(p, q)))
        ratios.append(float(np.mean(intra)) / float(np.mean(inter)))
    wins = sum(r < 1.0 for r in ratios)
    assert wins >= 3, wins
    _report(10, time.perf_counter() - start, 60.0,
            f"intra-problem < inter-problem embedded distance on {wins}/5 seeds "
            f"(intra/inter ratio by seed: "
            f"{' '.join(f'{r:.3f}' for r in ratios)})")


# ---------------------------------------------------------------------------
# criterion 11: byte-identical CLI reruns across every subcommand

def test_criterion_11_cli_determinism(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("LANDSCAPE_ATLAS_SEED", raising=False)
    start = time.perf_counter()
    feature_dir = tmp_path / "fv"
    model_path = tmp_path / "model.json"
    invocations = [
        ["list", "--format", "csv"],
        ["eval", "--problem", "m11", "--dim", "4", "--point=0.2,-0.3,0.7,0"],
        ["level", "--problem", "m2", "--instance", "3", "--dim", "4",
         "--point=0.5,0.5,-0.5,-0.5"],
        ["simulate", "--problem", "m15", "--dim", "4", "--point=0.1,0.9,-0.2,0.4"],
        ["walk", "--problem", "m7", "--instance", "2", "--dim", "10",
         "--anchor-seed", "11", "--directions", "2"],
        ["sample", "--problem", "shekel-10", "--dim", "3", "--n", "60",
         "--sample-seed", "9"],
        ["features", "--problem", "m1", "--instance", "4", "--dim", "6",
         "--n", "60", "--sample-seed", "2", "--feature-seed", "1"],
        ["features", "--problem", "sphere,rastrigin,ackley,griewank",
         "--instance", "1-2", "--dim", "2", "--n", "20",
         "--out-dir", str(feature_dir)],
        ["train", "--property", "funnel", "--dim", "2", "--n", "20",
         "--trees", "15", "--out", str(model_path)],
        ["cv", "--property", "global_structure", "--dim", "2", "--n", "20",
         "--trees", "9"],
        ["classify", "--model", str(model_path),
         "--features-dir", str(feature_dir)],
        ["embed", "--features-dir", str(feature_dir), "--perplexity", "2",
         "--iterations", "100"],
    ]
    for k, argv in enumerate(invocations):
        outputs = []
        for attempt in range(2):
            run_dir = tmp_path / f"run{k}-{attempt}"
            run_dir.mkdir()
            argv_run = list(argv)
            if argv[0] in ("train",):
                argv_run = argv_run[:-1] + [str(run_dir / "out.json")]
            elif "--out-dir" in argv_run:
                argv_run[argv_run.index("--out-dir") + 1] = str(run_dir / "d")
            elif argv[0] in ("embed",):
                argv_run += ["--out", str(run_dir / "map.csv")]
            else:
                argv_run += ["--out", str(run_dir / "out.txt")]
            assert main(argv_run) == 0, argv_run
            capsys.readouterr()
            blob = b""
            for path in sorted(run_dir.rglob("*")):
                if path.is_file():
                    blob += path.name.encode() + b"\0" + path.read_bytes()
            outputs.append(blob)
        assert outputs[0] == outputs[1], f"rerun differs for {argv[0]}"
        if argv[0] == "train":
            model_bytes = (tmp_path / f"run{k}-0" / "out.json").read_bytes()
            model_path.write_bytes(model_bytes)
        if argv[0] == "features" and "--out-dir" in argv:
            src = tmp_path / f"run{k}-0" / "d"
            feature_dir.mkdir(exist_ok=True)
            for f in src.iterdir():
                (feature_dir / f.name).write_bytes(f.read_bytes())
    _report(11, time.perf_counter() - start, 120.0,
            f"{len(invocations)} CLI invocations across all subcommands "
            "rerun byte-identically")


# ---------------------------------------------------------------------------
# criterion 12: the planner agrees with an independent exhaustive search

def _oracle_run(cells: np.ndarray) -> tuple[bool, int]:
    """Re-derive won/d_level from the movement rules with a plain Dijkstra
    over (row, column, jump-phase) states, independent of the engine's A*."""
    h, w = cells.shape
    t_max = 4 * w
    standable = STANDABLE_MASK[cells]
    hazard = HAZARD_MASK[cells]
    spawn_row = -1
    for r in range(h - 1, 0, -1):
        if standable[r, 0] and not standable[r - 1, 0]:
            spawn_row = r - 1
            break
    if spawn_row < 0:
        return False, 0
    start_cost = 10 if hazard[spawn_row, 0] else 0
    if w == 1:
        return (1 + start_cost <= t_max), 1

    dist = {(spawn_row, 0, 0): start_cost}
    heap = [(start_cost, spawn_row, 0, 0)]
    while heap:
        g, r, c, p = heappop(heap)
        if g > dist.get((r, c, p), float("inf")) or c == w - 1:
            continue
        supported = p == 0 and r + 1 < h and standable[r + 1, c]
        for dx in (0, 1):
            c2 = c + dx
            if c2 >= w:
                continue
            landings = []
            if p > 0:  # rising: continue the jump
                rise = 2 if r >= 2 else r
                landings.append((r - rise, (p - 1) if rise == 2 else 0))
            elif supported:
                landings.append((r, 0))                       # stand/walk
                rise = 2 if r >= 2 else r
                landings.append((r - rise, 1 if rise == 2 else 0))  # jump
                if r + 1 < h:
                    landings.append((r + 1, 0))               # drop
            else:  # falling; off the bottom row is a dead end
                if r + 1 < h:
                    landings.append((r + 1, 0))
            for r2, p2 in landings:
                cost = 1
                if (r2, c2) != (r, c) and hazard[r2, c2]:
                    cost += 10
                g2 = g + cost
                if g2 < dist.get((r2, c2, p2), float("inf")):
                    dist[(r2, c2, p2)] = g2
                    heappush(heap, (g2, r2, c2, p2))
    affordable = [state for state, g in dist.items() if g <= t_max]
    if not affordable:
        return False, 1
    best_col = max(c for _, c, _ in affordable)
    if best_col == w - 1:
        return True, w
    return False, best_col + 1


def test_criterion_12_simulator_oracle():
    start = time.perf_counter()
    alphabet = np.array([tiles.AIR, tiles.GROUND, tiles.ENEMY], dtype=np.int8)
    checked = 0
    for h in range(1, 7):
        for w in range(1, 6):
            cells = h * w
            if 3 ** cells <= 20000:
                grids = (np.array(combo, dtype=np.int8).reshape(h, w)
                         for combo in itertools.product(alphabet, repeat=cells))
            else:
                rng = np.random.default_rng(1000 * h + w)
                grids = (alphabet[rng.integers(0, 3, (h, w))]
                         for _ in range(10000))
            for m in grids:
                result = simulate(TileGrid(m), ASTAR)
                won, d_level = _oracle_run(m)
                assert (result.won, result.d_level) == (won, d_level), m
                checked += 1
    _report(12, time.perf_counter() - start, 300.0,
            f"astar won/d_level matches the exhaustive oracle on "
            f"{checked} grids")


# ---------------------------------------------------------------------------
# criterion 13: the paper's conclusions at survey scale -- the property
# labels of the 196 survey rows are pinned on the golden numeric stack

def test_criterion_13_survey_property_labels(mario_features, corpus):
    fvs, ids, _ = mario_features
    _, corpus_ids, corpus_fvs, _ = corpus
    start = time.perf_counter()
    table = load_labels()
    labelled = [(fv, problem) for fv, (suite, problem, seed)
                in zip(corpus_fvs, corpus_ids)
                if suite == "baseline" and seed in CORPUS_INSTANCE_SEEDS]
    assert len(labelled) == 80
    X = np.stack([fv.as_array() for fv in fvs])
    labels = {}
    for prop in PROPERTY_NAMES:
        rows = [LabelledRow(fv, table[fn][prop], fn) for fv, fn in labelled]
        model = train(rows, prop, train_seed=0, n_trees=200)
        labels[prop], _ = _vote(model.trees, X, model.vocabulary)
    survey = [[problem, seed, prop, labels[prop][k]]
              for k, (_, problem, seed) in enumerate(ids)
              for prop in PROPERTY_NAMES]

    # share of a problem's 7 instances that take its most common label
    print("\n[criterion 13] instance agreement per property: problem "
          + " ".join(PROPERTY_NAMES))
    for problem in MARIO_PROBLEMS:
        shares = []
        for prop in PROPERTY_NAMES:
            got = [labels[prop][k] for k, (_, p, _) in enumerate(ids)
                   if p == problem]
            shares.append(max(map(got.count, set(got))) / len(got))
        print(f"  {problem:>4} " + " ".join(f"{s:.2f}" for s in shares))
    elapsed = time.perf_counter() - start

    skip_off_the_pinned_stack()
    digest = hashlib.sha256(json.dumps(survey).encode()).hexdigest()
    assert digest == GOLDEN["survey"]["labels"]
    _report(13, elapsed, 30.0,
            "8 property models (200 trees) label the 196 survey rows as "
            "pinned")
