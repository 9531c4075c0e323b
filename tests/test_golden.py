"""Golden digests: refactors must leave the CLI's files byte-identical.

``golden.json`` pins the sha256 of the ``features`` file of every problem
(m1..m28 and the 16 baselines; instance 1, d=4, n=60, sample seed 1,
feature seed 0), of the ``level`` and ``simulate`` output for m13 (a
concatenation variant, astar) and m15 (the scared agent), and of a small
``train`` model whose forest misses some training rows, so its training
accuracy exercises the vote rule, fitted on the 80 corpus files that
``features --problem baselines --instance 1-5`` writes at the same set-up,
and of the ``walk`` output for m13 and
m17 (3 directions) and the ``sample`` output for m11 and m23 (n=60), which
pin the batch evaluation path of ``diagonal_walk`` and ``lhs_sample``.
The ``embed`` pins cover t-SNE: the CSV and ``.meta.json`` sidecar of a
300-iteration map of the 44 feature files at perplexity 10.
Two more pins cover the forest's deep-tree and CV paths: the ``cv`` output
for ``separability`` at 25 trees on those corpus files, and a 25-tree model trained on a
balanced, permuted 5-class labelling of the same rows, whose random labels
grow deep trees down to pure leaves.
The ``runs`` pins cover the agents at scale: the astar and scared
``SimulationResult`` tuples that the shared-design memo of
``evaluate_batch`` holds for a 200-row LHS design under each of the four
astar decoders (m11..m14: overworld, underground and their concatenations;
instance 1, d=10).
The ``survey`` pin, checked by criterion 13 of ``test_acceptance.py``,
covers the paper's conclusions: the eight property labels of the 196
survey rows (m1..m28 x 7 instances, d=10, n=500) from 200-tree models
trained on the 80 labelled baseline rows.
Byte identity is promised only on the numeric stack the pins were taken
with, so on another numpy version or OpenBLAS core the tests skip and say
which part of the stack differs.  The ``listing`` pins, of ``list`` in both
formats, read neither BLAS nor a random stream; ``test_cli.py`` checks
them on every stack.
"""
import ctypes
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from landscape_atlas.cli import main
from landscape_atlas.ela.sampling import lhs_points
from landscape_atlas.mario.sim import AGENT_KINDS
from landscape_atlas.problems import core, list_problems
from landscape_atlas.properties import LabelledRow, build_labelled_rows, train

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())
POINT = "--point=0.3,-0.5,0.1,0.7"


def _openblas_core() -> str | None:
    """Runtime core of the OpenBLAS bundled with the numpy wheel."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("libscipy_openblas64_*.so")):
        fn = ctypes.CDLL(str(lib_path)).scipy_openblas_get_corename64_
        fn.argtypes = []
        fn.restype = ctypes.c_char_p
        return fn().decode()
    return None


def skip_off_the_pinned_stack() -> None:
    """Skip the calling test unless numpy and OpenBLAS are the ones the
    golden digests were taken with."""
    stack = {"numpy": np.__version__, "openblas_core": _openblas_core()}
    if stack != GOLDEN["stack"]:
        pytest.skip(f"golden digests were taken on {GOLDEN['stack']}; "
                    f"this stack is {stack}")


@pytest.fixture(autouse=True)
def _pinned_stack(monkeypatch):
    monkeypatch.delenv("LANDSCAPE_ATLAS_SEED", raising=False)
    skip_off_the_pinned_stack()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _mismatches(got: dict, pinned: dict) -> list[str]:
    assert got.keys() == pinned.keys()
    return [name for name in pinned if got[name] != pinned[name]]


def _write_feature_files(out_dir: Path) -> list[str]:
    """Write one feature file per problem (instance 1, d=4, n=60, sample
    seed 1, feature seed 0) into out_dir; returns the problem ids."""
    problems = [row["problem"] for row in list_problems()]
    assert main(["features", "--problem", ",".join(problems),
                 "--instance", "1", "--dim", "4", "--n", "60",
                 "--sample-seed", "1", "--feature-seed", "0",
                 "--out-dir", str(out_dir)]) == 0
    return problems


def _write_corpus_files(out_dir: Path) -> Path:
    """Write the 80 corpus feature files (the 16 baselines at instances
    1-5; d=4, n=60, sample seed 1, feature seed 0) into out_dir."""
    assert main(["features", "--problem", "baselines", "--instance", "1-5",
                 "--dim", "4", "--n", "60", "--sample-seed", "1",
                 "--feature-seed", "0", "--out-dir", str(out_dir)]) == 0
    return out_dir


def test_features_files_match_their_digests(tmp_path):
    problems = _write_feature_files(tmp_path)
    got = {p: _sha256((tmp_path / f"{p}-i1.json").read_bytes())
           for p in problems}
    assert _mismatches(got, GOLDEN["features"]) == []


def test_embed_of_the_feature_files_matches_its_digests(tmp_path):
    # 300 iterations cross the end of early exaggeration at iteration 250
    features = tmp_path / "features"
    features.mkdir()
    _write_feature_files(features)
    out = tmp_path / "map.csv"
    assert main(["embed", "--features-dir", str(features),
                 "--perplexity", "10", "--iterations", "300",
                 "--embed-seed", "0", "--out", str(out)]) == 0
    got = {"embed csv": _sha256(out.read_bytes()),
           "embed meta": _sha256(Path(f"{out}.meta.json").read_bytes())}
    assert _mismatches(got, GOLDEN["embed"]) == []


def test_level_simulate_and_train_output_match_their_digests(tmp_path):
    got = {}
    for problem in ("m13", "m15"):
        for command in ("level", "simulate"):
            out = tmp_path / f"{command}-{problem}.txt"
            assert main([command, "--problem", problem, "--instance", "1",
                         "--dim", "4", POINT, "--out", str(out)]) == 0
            got[f"{command} {problem}"] = _sha256(out.read_bytes())
    model = tmp_path / "model.json"
    corpus = _write_corpus_files(tmp_path / "corpus")
    assert main(["train", "--property", "multimodality",
                 "--features-dir", str(corpus), "--trees", "5",
                 "--train-seed", "0", "--out", str(model)]) == 0
    got["train multimodality"] = _sha256(model.read_bytes())
    assert _mismatches(got, GOLDEN["cli"]) == []


def test_walk_and_sample_output_match_their_digests(tmp_path):
    got = {}
    for problem in ("m13", "m17"):
        out = tmp_path / f"walk-{problem}.csv"
        assert main(["walk", "--problem", problem, "--instance", "1",
                     "--dim", "4", "--anchor-seed", "1", "--directions", "3",
                     "--out", str(out)]) == 0
        got[f"walk {problem}"] = _sha256(out.read_bytes())
    for problem in ("m11", "m23"):
        out = tmp_path / f"sample-{problem}.csv"
        assert main(["sample", "--problem", problem, "--instance", "1",
                     "--dim", "4", "--n", "60", "--sample-seed", "1",
                     "--out", str(out)]) == 0
        got[f"sample {problem}"] = _sha256(out.read_bytes())
    assert _mismatches(got, GOLDEN["paths"]) == []


def test_cv_and_deep_tree_model_match_their_digests(tmp_path):
    out = tmp_path / "cv.json"
    corpus = _write_corpus_files(tmp_path / "corpus")
    assert main(["cv", "--property", "separability",
                 "--features-dir", str(corpus), "--trees", "25",
                 "--train-seed", "0", "--format", "json",
                 "--out", str(out)]) == 0
    got = {"cv separability": _sha256(out.read_bytes())}
    rows = build_labelled_rows("separability", dimension=4, n=60,
                               sample_seed=1, feature_seed=0)
    labels = [f"l{i % 5}" for i in range(len(rows))]
    np.random.default_rng(0).shuffle(labels)
    permuted = [LabelledRow(r.features, label, r.group)
                for r, label in zip(rows, labels)]
    model = train(permuted, "permuted", train_seed=0, n_trees=25)
    got["train permuted"] = _sha256(model.to_json().encode())
    assert _mismatches(got, GOLDEN["forest"]) == []


def test_agent_runs_of_the_astar_decoders_match_their_digests():
    got = {}
    for problem in ("m11", "m12", "m13", "m14"):
        inst = core.resolve(problem, 1, 10)
        box = inst.domain
        X = lhs_points(200, 10, box.lower, box.upper, 1)
        core.evaluate_batch(inst, X)
        for agent in AGENT_KINDS:
            rows = [dataclasses.astuple(r)
                    for r in core._design_items(inst, X, agent)]
            got[f"{agent} {problem}"] = _sha256(json.dumps(rows).encode())
    assert _mismatches(got, GOLDEN["runs"]) == []
