import ctypes
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from landscape_atlas import cli, walks
from landscape_atlas.cli import main
from landscape_atlas.ela import sampling
from landscape_atlas.problems import list_problems, resolve
from landscape_atlas.problems.core import _design_groups
from landscape_atlas.properties import (
    PropertyModel, build_labelled_rows, predict, train,
)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _strip_env_line(text):
    return "\n".join(l for l in text.splitlines() if not l.startswith("# env_seed"))


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("LANDSCAPE_ATLAS_SEED", raising=False)


def test_list_matches_its_digests_on_every_stack(tmp_path):
    # The listing reads no BLAS and no random stream, so unlike the pins of
    # test_golden.py these hold on any numpy and OpenBLAS.
    pinned = json.loads((Path(__file__).parent / "golden.json").read_text())
    got = {}
    for fmt in ("csv", "json"):
        out = tmp_path / f"list.{fmt}"
        assert main(["list", "--format", fmt, "--out", str(out)]) == 0
        got[f"list {fmt}"] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == pinned["listing"]


def test_list_names_all_44_problems(capsys):
    code, out, _ = _run(capsys, ["list"])
    assert code == 0
    data = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert data[0].startswith("problem,suite,")
    assert len(data) == 1 + 44
    assert data[1].startswith("m1,mario")


def test_list_json_format(capsys):
    code, out, _ = _run(capsys, ["list", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["problems"]) == 44


def test_eval_prints_a_value_and_writes_csv(capsys, tmp_path):
    out_file = tmp_path / "eval.csv"
    argv = ["eval", "--problem", "sphere", "--dim", "2",
            "--point=0.5,-0.5", "--out", str(out_file)]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert float(out.strip()) == 0.5
    body = out_file.read_text()
    assert "# command: eval" in body
    assert body.rstrip().endswith("0.5")


def test_eval_wrong_point_length_is_a_usage_error(capsys, tmp_path):
    out_file = tmp_path / "eval.csv"
    code, _, err = _run(capsys, ["eval", "--problem", "sphere", "--dim", "3",
                                 "--point=1,2", "--out", str(out_file)])
    assert code == 2
    assert "error" in err
    assert not out_file.exists()


def test_eval_out_of_bounds_is_a_runtime_error(capsys):
    code, _, err = _run(capsys, ["eval", "--problem", "m1", "--dim", "2",
                                 "--point=2,0"])
    assert code == 1
    assert "OutOfBounds" in err


@pytest.mark.parametrize("problem", ("m1", "m11", "sphere", "shekel-5"))
def test_eval_rejects_non_finite_points(capsys, problem):
    code, out, err = _run(capsys, ["eval", "--problem", problem, "--dim", "2",
                                   "--point=nan,0"])
    assert code == 1
    assert out == ""
    assert "OutOfBounds" in err


def test_unknown_problem_is_a_runtime_error(capsys):
    code, _, err = _run(capsys, ["eval", "--problem", "m99", "--dim", "2",
                                 "--point=0,0"])
    assert code == 1
    assert "UnknownProblem" in err


def test_level_renders_14_rows(capsys):
    code, out, _ = _run(capsys, ["level", "--problem", "m1", "--dim", "4",
                                 "--point=0,0,0,0"])
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(rows) == 14
    assert all(len(r) == 28 for r in rows)


def test_simulate_reports_run_and_overlays_path(capsys):
    code, out, _ = _run(capsys, ["simulate", "--problem", "m11", "--dim", "4",
                                 "--point=0,0,0,0"])
    assert code == 0
    assert "agent=astar" in out
    assert "won=" in out and "basic_fitness=" in out
    overlay = [l for l in out.splitlines() if l and not l.startswith(("#",))]
    assert any("*" in l for l in overlay)


def test_simulate_needs_an_agent_for_grid_problems(capsys):
    code, _, err = _run(capsys, ["simulate", "--problem", "m1", "--dim", "4",
                                 "--point=0,0,0,0"])
    assert code == 2
    assert "--agent" in err


def test_walk_csv_shares_the_anchor_across_directions(capsys, tmp_path):
    out_file = tmp_path / "walk.csv"
    code, _, _ = _run(capsys, ["walk", "--problem", "m7", "--instance", "1",
                               "--dim", "10", "--anchor-seed", "42",
                               "--directions", "3", "--out", str(out_file)])
    assert code == 0
    lines = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert header[:2] == ["walk_id", "offset"]
    assert header[-1] == "y"
    anchors = {}
    for line in lines[1:]:
        cells = line.split(",")
        if cells[1] == "0":
            anchors[cells[0]] = ",".join(cells[2:-1])
    assert sorted(anchors) == ["0", "1", "2"]
    assert len(set(anchors.values())) == 1


def test_walk_reruns_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["walk", "--problem", "m1", "--dim", "6", "--anchor-seed", "3",
            "--directions", "2"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_a_walk_step_that_moves_no_coordinate_exits_1_and_names_it(
        capsys, tmp_path):
    out_file = tmp_path / "walk.csv"
    code, out, err = _run(capsys, ["walk", "--problem", "sphere", "--dim", "2",
                                   "--step", "1e-300", "--out", str(out_file)])
    assert code == 1
    assert "ValueError: step 1e-300 moves no coordinate" in err
    assert out == "" and not out_file.exists()


def test_sample_writes_n_rows(capsys, tmp_path):
    out_file = tmp_path / "s.csv"
    code, _, _ = _run(capsys, ["sample", "--problem", "rastrigin", "--dim", "2",
                               "--n", "30", "--sample-seed", "4",
                               "--out", str(out_file)])
    assert code == 0
    lines = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "x1,x2,y"
    assert len(lines) == 31


def test_sample_default_n_is_50d(capsys):
    code, out, _ = _run(capsys, ["sample", "--problem", "sphere", "--dim", "2"])
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 1 + 100
    assert "# n: 100" in out


def test_features_single_row_to_stdout(capsys):
    code, out, _ = _run(capsys, ["features", "--problem", "sphere",
                                 "--dim", "2", "--n", "24"])
    assert code == 0
    doc = json.loads(out)
    assert doc["problem"] == "sphere"
    assert len(doc["features"]) == 31
    assert doc["n"] == 24 and doc["d"] == 2


def test_features_flag_a_response_that_is_constant_on_the_design(capsys):
    # m23 reads the same value on all six rows of this design
    code, out, err = _run(capsys, ["features", "--problem", "m23", "--dim", "2",
                                   "--n", "6", "--sample-seed", "1"])
    assert code == 0, err
    doc = json.loads(out)
    assert {"nbc.ratio", "nbc.sd_ratio", "nbc.cor_nn_y"} <= set(doc["degenerate"])


def test_features_rerun_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["features", "--problem", "m1", "--instance", "1", "--dim", "4",
            "--n", "40", "--sample-seed", "7"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_features_many_rows_need_out_dir(capsys, tmp_path):
    code, _, err = _run(capsys, ["features", "--problem", "m1,m2",
                                 "--dim", "4", "--n", "20"])
    assert code == 2
    assert "--out-dir" in err
    assert list(tmp_path.iterdir()) == []


def test_features_out_dir_and_jobs(capsys, tmp_path):
    out_dir = tmp_path / "fv"
    code, _, _ = _run(capsys, ["features", "--problem", "sphere,rastrigin",
                               "--instance", "1-2", "--dim", "2", "--n", "20",
                               "--out-dir", str(out_dir), "--jobs", "2"])
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["rastrigin-i1.json", "rastrigin-i2.json",
                     "sphere-i1.json", "sphere-i2.json"]
    serial_dir = tmp_path / "fv1"
    code, _, _ = _run(capsys, ["features", "--problem", "sphere,rastrigin",
                               "--instance", "1-2", "--dim", "2", "--n", "20",
                               "--out-dir", str(serial_dir)])
    assert code == 0
    for name in names:
        assert (out_dir / name).read_bytes() == (serial_dir / name).read_bytes()


def test_outputs_name_a_problem_by_its_registry_id(capsys, tmp_path):
    # m01 is parsed as m1, and every output says so, as for m1 itself
    dirs = [tmp_path / "a", tmp_path / "b"]
    for problem, out_dir in zip(("m01", "m1"), dirs):
        assert _run(capsys, ["features", "--problem", problem, "--dim", "4",
                             "--n", "20", "--out-dir", str(out_dir)])[0] == 0
    assert [p.name for p in dirs[0].iterdir()] == ["m1-i1.json"]
    assert (dirs[0] / "m1-i1.json").read_bytes() == \
        (dirs[1] / "m1-i1.json").read_bytes()
    samples = [_run(capsys, ["sample", "--problem", problem, "--dim", "2",
                             "--n", "4"]) for problem in ("m01", "m1")]
    assert samples[0] == samples[1]
    assert "# problem: m1\n" in samples[0][1]


def test_environment_seed_fills_unset_seeds(capsys, tmp_path, monkeypatch):
    explicit = tmp_path / "explicit.csv"
    _run(capsys, ["walk", "--problem", "m1", "--dim", "4", "--instance", "5",
                  "--anchor-seed", "5", "--out", str(explicit)])
    monkeypatch.setenv("LANDSCAPE_ATLAS_SEED", "5")
    via_env = tmp_path / "env.csv"
    _run(capsys, ["walk", "--problem", "m1", "--dim", "4",
                  "--out", str(via_env)])
    env_text = via_env.read_text()
    assert "# env_seed: 5" in env_text
    assert "# anchor_seed: 5" in env_text
    assert _strip_env_line(env_text) == _strip_env_line(explicit.read_text())


def test_flags_beat_the_environment_seed(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("LANDSCAPE_ATLAS_SEED", "9")
    out_file = tmp_path / "w.csv"
    _run(capsys, ["walk", "--problem", "m1", "--dim", "4", "--instance", "2",
                  "--anchor-seed", "3", "--out", str(out_file)])
    text = out_file.read_text()
    assert "# instance: 2" in text
    assert "# anchor_seed: 3" in text


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """The 80 corpus files (the 16 baselines at instances 1-5) at d=2,
    n=20, sample seed 1 and feature seed 0."""
    out_dir = tmp_path_factory.mktemp("corpus")
    assert main(["features", "--problem", "baselines", "--instance", "1-5",
                 "--dim", "2", "--n", "20", "--sample-seed", "1",
                 "--feature-seed", "0", "--out-dir", str(out_dir)]) == 0
    return out_dir


def _make_feature_dir(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    code, _, _ = _run(capsys, [
        "features", "--problem", "sphere,rastrigin,ackley,griewank",
        "--instance", "1-2", "--dim", "2", "--n", "20",
        "--out-dir", str(out_dir)])
    assert code == 0
    return out_dir


def test_train_classify_round_trip(capsys, tmp_path, corpus_dir):
    model_path = tmp_path / "model.json"
    code, out, _ = _run(capsys, ["train", "--property", "funnel",
                                 "--features-dir", str(corpus_dir),
                                 "--trees", "9", "--out", str(model_path)])
    assert code == 0
    assert "training accuracy" in out
    doc = json.loads(model_path.read_text())
    assert doc["property"] == "funnel"
    assert doc["n_trees"] == 9

    feature_dir = _make_feature_dir(tmp_path, capsys)
    pred_path = tmp_path / "pred.csv"
    code, _, _ = _run(capsys, ["classify", "--model", str(model_path),
                               "--features-dir", str(feature_dir),
                               "--out", str(pred_path)])
    assert code == 0
    lines = [l for l in pred_path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "problem,instance,property,label,vote_share"
    assert len(lines) == 1 + 8
    labels = {l.split(",")[3] for l in lines[1:]}
    assert labels <= {"yes", "no"}


def test_classify_features_dir_equals_per_file_predict(capsys, tmp_path,
                                                     corpus_dir):
    model_path = tmp_path / "model.json"
    assert _run(capsys, ["train", "--property", "funnel",
                         "--features-dir", str(corpus_dir), "--trees", "25",
                         "--out", str(model_path)])[0] == 0
    feature_dir = _make_feature_dir(tmp_path, capsys)
    code, out, _ = _run(capsys, ["classify", "--model", str(model_path),
                                 "--features-dir", str(feature_dir)])
    assert code == 0
    model = PropertyModel.from_json(model_path.read_text())
    expected = []
    for name in sorted(os.listdir(feature_dir)):
        doc = json.loads((feature_dir / name).read_text())
        pred = predict(model, doc["features"])
        expected.append(",".join([
            doc["problem"], str(doc["instance"]), "funnel", pred.label,
            format(pred.vote_shares[pred.label], ".17g")]))
    assert out.splitlines()[-len(expected):] == expected
    assert len({line.split(",")[4] for line in expected}) > 1


def test_classify_refuses_features_of_another_set_up(capsys, tmp_path,
                                                    corpus_dir):
    model_path = tmp_path / "model.json"
    assert _run(capsys, ["train", "--property", "funnel",
                         "--features-dir", str(corpus_dir), "--trees", "3",
                         "--out", str(model_path)])[0] == 0
    bare_path = tmp_path / "bare.json"
    doc = json.loads(model_path.read_text())
    del doc["metadata"]
    bare_path.write_text(json.dumps(doc))
    for dim, n in ((3, 20), (2, 30)):
        features = tmp_path / f"sphere-d{dim}-n{n}.json"
        assert _run(capsys, ["features", "--problem", "sphere",
                             "--dim", str(dim), "--n", str(n),
                             "--out", str(features)])[0] == 0
        code, out, err = _run(capsys, ["classify", "--model", str(model_path),
                                       "--features", str(features)])
        assert (code, out) == (1, "")
        assert "ManifestMismatch" in err
        # a model without training metadata classifies it as before
        code, out, _ = _run(capsys, ["classify", "--model", str(bare_path),
                                     "--features", str(features)])
        assert code == 0 and "sphere" in out


def test_classify_needs_exactly_one_source(capsys, tmp_path):
    code, _, err = _run(capsys, ["classify", "--model", "m.json"])
    assert code == 2
    assert "--features" in err


def test_train_rejects_unknown_property(capsys, tmp_path):
    code, _, err = _run(capsys, ["train", "--property", "sparkliness",
                                 "--features-dir", str(tmp_path / "missing"),
                                 "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "sparkliness" not in err or "--property" in err


def test_cv_emits_one_fold_per_function(capsys, corpus_dir):
    code, out, _ = _run(capsys, ["cv", "--property", "funnel",
                                 "--features-dir", str(corpus_dir),
                                 "--trees", "9"])
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "group,n_test,accuracy"
    assert len(lines) == 1 + 16
    assert "# mean_accuracy: " in out


def _train_and_cv(capsys, tmp_path, features_dir) -> tuple[bytes, bytes]:
    """The bytes of a train model and a cv table fitted on features_dir."""
    model, table = tmp_path / "model.json", tmp_path / "cv.csv"
    assert main(["train", "--property", "multimodality", "--trees", "5",
                 "--features-dir", str(features_dir),
                 "--out", str(model)]) == 0
    assert main(["cv", "--property", "multimodality", "--trees", "5",
                 "--features-dir", str(features_dir),
                 "--out", str(table)]) == 0
    capsys.readouterr()
    return model.read_bytes(), table.read_bytes()


def test_train_and_cv_fit_only_the_corpus_files_of_a_mixed_directory(
        capsys, tmp_path, corpus_dir):
    mixed = tmp_path / "mixed"
    assert main(["features", "--problem", "m7,baselines", "--instance", "1-6",
                 "--dim", "2", "--n", "20", "--sample-seed", "1",
                 "--feature-seed", "0", "--out-dir", str(mixed)]) == 0
    assert len(os.listdir(mixed)) == 6 + 16 * 6
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert _train_and_cv(capsys, tmp_path / "a", mixed) == \
        _train_and_cv(capsys, tmp_path / "b", corpus_dir)
    # the set-up comes from the files, and the rows are the library's corpus
    doc = json.loads((tmp_path / "a" / "model.json").read_text())
    assert {k: doc["metadata"][k] for k in ("dim", "n", "sample_seed",
                                            "feature_seed")} == \
        {"dim": 2, "n": 20, "sample_seed": 1, "feature_seed": 0}
    rows = build_labelled_rows("multimodality", dimension=2, n=20)
    assert PropertyModel.from_json(json.dumps(doc)).trees == \
        train(rows, "multimodality", 0, n_trees=5).trees
    assert "# n: 20\n" in (tmp_path / "a" / "cv.csv").read_text()


@pytest.mark.parametrize("flag,value", [("--n", "24"),
                                        ("--sample-seed", "2")])
def test_corpus_files_of_two_set_ups_exit_1_naming_the_directory(
        capsys, tmp_path, corpus_dir, flag, value):
    features_dir = tmp_path / "corpus"
    features_dir.mkdir()
    for path in corpus_dir.iterdir():
        (features_dir / path.name).write_bytes(path.read_bytes())
    # sphere instance 1 again, at another n or sample seed
    set_up = {"--n": "20", "--sample-seed": "1", flag: value}
    assert main(["features", "--problem", "sphere", "--dim", "2",
                 "--out", str(features_dir / "sphere-i1.json")]
                + [tok for pair in set_up.items() for tok in pair]) == 0
    for command in ("train", "cv"):
        out_file = tmp_path / f"{command}.out"
        code, out, err = _run(capsys, [command, "--property", "funnel",
                                       "--features-dir", str(features_dir),
                                       "--out", str(out_file)])
        assert (code, out) == (1, "")
        assert str(features_dir) in err and "one set-up" in err
        assert not out_file.exists()


def _copy_dir(src, dst):
    dst.mkdir()
    for path in src.iterdir():
        (dst / path.name).write_bytes(path.read_bytes())
    return dst


def _directory_readers(tmp_path, corpus_dir, capsys) -> list[list[str]]:
    """One argv per command that reads --features-dir (the flag and its
    value left off): train, cv, classify with a model trained on
    corpus_dir, and embed."""
    model = tmp_path / "model.json"
    assert _run(capsys, ["train", "--property", "funnel", "--features-dir",
                         str(corpus_dir), "--trees", "3",
                         "--out", str(model)])[0] == 0
    return [["train", "--property", "funnel", "--trees", "3"],
            ["cv", "--property", "funnel", "--trees", "3"],
            ["classify", "--model", str(model)],
            ["embed", "--perplexity", "5", "--iterations", "60"]]


def _refuses_naming_both(capsys, tmp_path, argvs, features_dir, first, copy):
    for argv in argvs:
        out_file = tmp_path / f"{argv[0]}.out"
        code, out, err = _run(capsys, argv + [
            "--features-dir", str(features_dir), "--out", str(out_file)])
        assert (code, out) == (1, ""), argv
        assert str(first) in err and str(copy) in err
        assert not out_file.exists()


def test_a_second_file_for_one_corpus_pair_exits_1_naming_both(
        capsys, tmp_path, corpus_dir):
    argvs = _directory_readers(tmp_path, corpus_dir, capsys)
    features_dir = _copy_dir(corpus_dir, tmp_path / "corpus")
    first = features_dir / "sphere-i1.json"
    copy = features_dir / "sphere-i1 (copy).json"
    copy.write_bytes(first.read_bytes())
    _refuses_naming_both(capsys, tmp_path, argvs, features_dir, first, copy)


def test_a_second_file_for_one_non_corpus_pair_exits_1_naming_both(
        capsys, tmp_path, corpus_dir):
    argvs = _directory_readers(tmp_path, corpus_dir, capsys)
    features_dir = _copy_dir(corpus_dir, tmp_path / "corpus")
    assert main(["features", "--problem", "m7", "--instance", "1",
                 "--dim", "2", "--n", "20", "--out-dir",
                 str(features_dir)]) == 0
    for argv in argvs:  # one m7 file: train and cv skip it
        assert main(argv + ["--features-dir", str(features_dir), "--out",
                            str(tmp_path / "ok.out")]) == 0, argv
    capsys.readouterr()
    first = features_dir / "m7-i1.json"
    copy = features_dir / "m7-i1 (copy).json"
    copy.write_bytes(first.read_bytes())
    _refuses_naming_both(capsys, tmp_path, argvs, features_dir, first, copy)


def test_embed_sidecars_are_skipped_and_other_documents_refused_by_path(
        capsys, tmp_path, corpus_dir):
    features_dir = _copy_dir(corpus_dir, tmp_path / "corpus")
    embed = ["embed", "--features-dir", str(features_dir), "--perplexity",
             "5", "--iterations", "60"]
    assert main(embed + ["--out", str(features_dir / "map.csv")]) == 0
    assert (features_dir / "map.csv.meta.json").exists()
    model = tmp_path / "model.json"
    commands = (
        ["train", "--property", "funnel", "--features-dir", str(features_dir),
         "--trees", "3", "--out", str(model)],
        ["cv", "--property", "funnel", "--features-dir", str(features_dir),
         "--trees", "3"],
        ["classify", "--model", str(model), "--features-dir",
         str(features_dir)],
        embed + ["--out", str(tmp_path / "map.csv")],
    )
    for argv in commands:
        assert _run(capsys, argv)[0] == 0
    # a JSON document of another command is refused, naming its path
    stray = features_dir / "model.json"
    stray.write_bytes(model.read_bytes())
    for argv in commands[1:]:
        code, _, err = _run(capsys, argv)
        assert code == 1
        assert "LandscapeError" in err and str(stray) in err


def test_a_directory_without_corpus_files_exits_1_naming_it(capsys, tmp_path):
    # mario files and baseline seeds beyond 5 are not corpus files
    features_dir = tmp_path / "survey"
    assert main(["features", "--problem", "m7,sphere", "--instance", "6-7",
                 "--dim", "2", "--n", "20", "--out-dir", str(features_dir)]) == 0
    for command in ("train", "cv"):
        code, out, err = _run(capsys, [command, "--property", "funnel",
                                       "--features-dir", str(features_dir),
                                       "--out", str(tmp_path / "out")])
        assert (code, out) == (1, "")
        assert str(features_dir) in err
        assert not (tmp_path / "out").exists()


def test_the_mario_and_baselines_aliases_expand_in_a_comma_list():
    names = [row["problem"] for row in list_problems()]
    assert cli._problem_list_type("mario,baselines") == names
    assert cli._problem_list_type("baselines") == names[28:]
    assert len(names[28:]) == 16
    assert cli._problem_list_type(" sphere , mario") == ["sphere"] + names[:28]


def test_embed_writes_csv_and_sidecar(capsys, tmp_path):
    feature_dir = _make_feature_dir(tmp_path, capsys)
    out_file = tmp_path / "map.csv"
    argv = ["embed", "--features-dir", str(feature_dir), "--perplexity", "2",
            "--iterations", "60", "--out", str(out_file)]
    code, _, _ = _run(capsys, argv)
    assert code == 0
    lines = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "suite,problem,instance,u,v"
    assert len(lines) == 1 + 8
    sidecar = json.loads((tmp_path / "map.csv.meta.json").read_text())
    assert sidecar["rows"] == 8
    assert len(sidecar["kl_trace"]) == 1  # 60 iterations -> one checkpoint

    rerun = tmp_path / "map2.csv"
    argv2 = ["embed", "--features-dir", str(feature_dir), "--perplexity", "2",
             "--iterations", "60", "--out", str(rerun)]
    assert main(argv2) == 0
    capsys.readouterr()
    assert rerun.read_bytes() == out_file.read_bytes()


def test_embed_labels_suites_by_exact_problem_lookup(capsys, tmp_path):
    feature_dir = tmp_path / "corpus"
    assert main(["features", "--problem", "m7,shekel-5", "--instance", "1-3",
                 "--dim", "2", "--n", "20", "--out-dir", str(feature_dir)]) == 0
    out_file = tmp_path / "map.csv"
    assert main(["embed", "--features-dir", str(feature_dir),
                 "--perplexity", "1.5", "--iterations", "60",
                 "--out", str(out_file)]) == 0
    capsys.readouterr()
    rows = [l.split(",") for l in out_file.read_text().splitlines()
            if not l.startswith("#")][1:]
    assert {(r[0], r[1]) for r in rows} == {("mario", "m7"),
                                           ("baseline", "shekel-5")}


def test_feature_file_naming_an_unknown_problem_is_a_runtime_error(
        capsys, tmp_path):
    feature_dir = _make_feature_dir(tmp_path, capsys)
    doc_path = feature_dir / "sphere-i1.json"
    doc = json.loads(doc_path.read_text())
    doc["problem"] = "spheroid"
    doc_path.write_text(json.dumps(doc))
    out_file = tmp_path / "map.csv"
    code, _, err = _run(capsys, ["embed", "--features-dir", str(feature_dir),
                                 "--perplexity", "2", "--iterations", "60",
                                 "--out", str(out_file)])
    assert code == 1
    assert "UnknownProblem" in err and "spheroid" in err
    assert not out_file.exists()


def test_features_jobs_output_matches_serial_on_shared_designs(capsys, tmp_path):
    argv = ["features", "--problem",
            "m1,m3,m11,m13,m15,sphere,ellipsoid,ackley,shekel-5",
            "--instance", "1-2", "--dim", "4", "--n", "20"]
    parallel, serial = tmp_path / "jobs2", tmp_path / "serial"
    assert main(argv + ["--out-dir", str(parallel), "--jobs", "2"]) == 0
    assert main(argv + ["--out-dir", str(serial)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in serial.iterdir())
    assert len(names) == 18
    assert sorted(p.name for p in parallel.iterdir()) == names
    for name in names:
        assert (parallel / name).read_bytes() == (serial / name).read_bytes()


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS bundled with numpy's wheel, if it is one."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*.so")):
        get = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        get.restype = ctypes.c_int
        return get()
    return None


def test_features_jobs_workers_run_one_blas_thread(monkeypatch, tmp_path):
    if _blas_threads() is None:
        pytest.skip("numpy does not bundle OpenBLAS on this stack")
    seen, real_pool = [], cli.Pool

    def pool(*args, **kwargs):
        opened = real_pool(*args, **kwargs)
        seen.append(opened.apply(_blas_threads))  # runs in a worker
        return opened

    monkeypatch.setattr(cli, "Pool", pool)
    assert main(["features", "--problem", "sphere,rastrigin", "--dim", "2",
                 "--n", "20", "--out-dir", str(tmp_path), "--jobs", "2"]) == 0
    assert seen == [1]


def test_design_groups_share_a_decoder_and_keep_baselines_alone():
    order = [("m1", 1), ("m11", 1), ("sphere", 1), ("m13", 1), ("m1", 2),
             ("m15", 1), ("sphere", 2), ("m3", 1)]
    instances = [resolve(p, k, 4) for p, k in order]
    groups = _design_groups(instances)
    assert groups == [[instances[i] for i in g]
                      for g in ([0, 1, 5, 7], [2], [3], [4], [6])]


@pytest.mark.parametrize("argv", [
    ["sample", "--problem", "m1", "--dim", "4", "--n", "7"],
    ["features", "--problem", "m1", "--dim", "4", "--n", "9"],
    ["walk", "--problem", "m1", "--dim", "4", "--step", "0"],
    ["features", "--problem", "m1", "--dim", "4", "--n", "20", "--jobs", "0"],
    ["walk", "--problem", "m1", "--dim", "4", "--directions", "0"],
    ["train", "--property", "funnel", "--trees", "0"],
    ["cv", "--property", "funnel", "--trees", "0"],
    ["embed", "--perplexity", "0"],
    ["embed", "--perplexity", "-3"],
    ["embed", "--perplexity", "nan"],
    ["embed", "--iterations", "0"],
    ["embed", "--iterations", "-5"],
    ["features", "--problem", "sphere,sphere", "--dim", "4", "--n", "20"],
    ["features", "--problem", "m1", "--instance", "1-3,2", "--dim", "4",
     "--n", "20"],
    ["features", "--problem", "", "--dim", "4", "--n", "20"],
    ["features", "--problem", ",,", "--dim", "4", "--n", "20"],
    ["features", "--problem", "m1", "--instance", "1,5-3", "--dim", "4",
     "--n", "20"],
    ["features", "--problem", "m1", "--dim", "4", "--n", "20", "--out", "out"],
], ids=["sample-n-below-2d", "features-n-below-2d+2", "walk-step-0",
        "features-jobs-0", "walk-directions-0", "train-trees-0", "cv-trees-0",
        "embed-perplexity-0",
        "embed-perplexity-neg", "embed-perplexity-nan", "embed-iterations-0",
        "embed-iterations-neg", "features-repeated-problem",
        "features-repeated-instance", "features-no-problem",
        "features-only-commas", "features-descending-range",
        "features-out-and-out-dir"])
def test_usage_errors_exit_2_before_any_output(capsys, tmp_path, argv,
                                               monkeypatch):
    _assert_usage_error(capsys, tmp_path, monkeypatch, argv)


def _assert_usage_error(capsys, tmp_path, monkeypatch, argv) -> str:
    """Run argv with an output flag under tmp_path, assert that it exits 2
    before any work or output, and return its stderr."""
    def no_work(*args, **kwargs):
        raise AssertionError("library work started")

    for module in (sampling, walks):
        monkeypatch.setattr(module, "evaluate_batch", no_work)
    monkeypatch.chdir(tmp_path)  # a relative --out lands on out_file
    out_file = tmp_path / "out"
    out_dir = tmp_path / "dir"
    target = ["--out-dir", str(out_dir)] if argv[0] == "features" \
        else ["--out", str(out_file)]
    if argv[0] in ("embed", "train", "cv"):  # exit 2 shows nothing was read
        target += ["--features-dir", str(tmp_path / "missing")]
    try:
        code, out, err = _run(capsys, argv + target)
    except SystemExit as exc:  # argparse refused a flag's value
        code, (out, err) = exc.code, capsys.readouterr()
    assert code == 2
    assert "error" in err
    assert out == ""
    assert not out_file.exists() and not out_dir.exists()
    return err


_TOO_BIG = str(2 ** 63)


@pytest.mark.parametrize("argv,env,named", [
    (["sample", "--problem", "sphere", "--dim", "2", "--sample-seed", "-1"],
     None, "--sample-seed"),
    (["walk", "--problem", "sphere", "--dim", "2", "--anchor-seed", "-1"],
     None, "--anchor-seed"),
    (["features", "--problem", "sphere", "--dim", "2", "--feature-seed", "-1"],
     None, "--feature-seed"),
    (["features", "--problem", "sphere", "--dim", "2", "--instance", "1,-2"],
     None, "--instance"),
    (["eval", "--problem", "sphere", "--dim", "2", "--instance", _TOO_BIG,
      "--point=0,0"], None, "--instance"),
    (["cv", "--property", "funnel", "--train-seed", "-1"], None,
     "--train-seed"),
    (["train", "--property", "funnel", "--train-seed", _TOO_BIG], None,
     "--train-seed"),
    (["embed", "--embed-seed", _TOO_BIG], None, "--embed-seed"),
    (["embed", "--embed-seed", "-1"], None, "--embed-seed"),
    (["embed"], _TOO_BIG, "LANDSCAPE_ATLAS_SEED"),
    (["sample", "--problem", "sphere", "--dim", "2"], "-1",
     "LANDSCAPE_ATLAS_SEED"),
    (["sample", "--problem", "sphere", "--dim", "-1"], None,
     "--dim must be at least 1"),
    (["sample", "--problem", "sphere", "--dim", "0"], None,
     "--dim must be at least 1"),
    (["walk", "--problem", "sphere", "--dim", "0"], None,
     "--dim must be at least 1"),
    (["features", "--problem", "sphere", "--dim", "-2"], None,
     "--dim must be at least 1"),
], ids=["sample-seed-neg", "anchor-seed-neg", "feature-seed-neg",
        "instance-list-neg", "instance-2^63", "train-seed-neg",
        "train-seed-2^63", "embed-seed-2^63", "embed-seed-neg",
        "env-seed-2^63", "env-seed-neg", "sample-dim-neg", "sample-dim-0",
        "walk-dim-0", "features-dim-neg"])
def test_seeds_outside_0_to_2_63_and_dims_below_1_exit_2_naming_the_flag(
        capsys, tmp_path, monkeypatch, argv, env, named):
    if env is not None:
        monkeypatch.setenv("LANDSCAPE_ATLAS_SEED", env)
    err = _assert_usage_error(capsys, tmp_path, monkeypatch, argv)
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("instances,named", [("3-1", "3-1"),
                                             ("1,5-3", "5-3")])
def test_a_descending_instance_range_is_named(capsys, instances, named):
    with pytest.raises(SystemExit) as exc:
        main(["features", "--problem", "m1", "--instance", instances,
              "--dim", "4"])
    assert exc.value.code == 2
    assert f"range {named} ends below its start" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["walk", "--problem", "m1", "--dim", "4"],
    ["sample", "--problem", "m1", "--dim", "4", "--n", "20"],
    ["features", "--problem", "m1", "--dim", "4", "--n", "20"],
    ["train", "--property", "funnel"],
    ["cv", "--property", "funnel"],
    ["embed"],
], ids=["walk", "sample", "features", "train", "cv", "embed"])
def test_malformed_environment_seed_exits_2_before_any_output(
        capsys, tmp_path, argv, monkeypatch):
    monkeypatch.setenv("LANDSCAPE_ATLAS_SEED", "abc")
    err = _assert_usage_error(capsys, tmp_path, monkeypatch, argv)
    assert "LANDSCAPE_ATLAS_SEED" in err


def test_subcommands_without_seeds_ignore_a_malformed_environment_seed(
        capsys, tmp_path, monkeypatch, corpus_dir):
    model_path = tmp_path / "model.json"
    assert _run(capsys, ["train", "--property", "funnel",
                         "--features-dir", str(corpus_dir), "--trees", "3",
                         "--out", str(model_path)])[0] == 0
    feature_dir = _make_feature_dir(tmp_path, capsys)
    monkeypatch.setenv("LANDSCAPE_ATLAS_SEED", "abc")
    code, out, _ = _run(capsys, ["list"])
    assert code == 0 and "# env_seed: abc" in out
    code, out, _ = _run(capsys, ["classify", "--model", str(model_path),
                                 "--features-dir", str(feature_dir)])
    assert code == 0 and "# env_seed: abc" in out


def test_environment_seed_fills_and_names_feature_instances(
        capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("LANDSCAPE_ATLAS_SEED", "5")
    out_dir = tmp_path / "dir"
    code, _, _ = _run(capsys, ["features", "--problem", "m1,sphere",
                               "--dim", "4", "--n", "20",
                               "--out-dir", str(out_dir)])
    assert code == 0
    assert sorted(os.listdir(out_dir)) == ["m1-i5.json", "sphere-i5.json"]
    doc = json.loads((out_dir / "m1-i5.json").read_text())
    assert (doc["instance"], doc["sample_seed"], doc["feature_seed"],
            doc["env_seed"]) == (5, 5, 5, "5")


def test_classify_refuses_a_malformed_model_with_exit_1(capsys, tmp_path,
                                                      corpus_dir):
    model_path = tmp_path / "model.json"
    assert _run(capsys, ["train", "--property", "funnel",
                         "--features-dir", str(corpus_dir), "--trees", "3",
                         "--out", str(model_path)])[0] == 0
    features = tmp_path / "sphere.json"
    assert _run(capsys, ["features", "--problem", "sphere", "--dim", "2",
                         "--n", "20", "--out", str(features)])[0] == 0
    doc = json.loads(model_path.read_text())
    tree = doc["trees"][0]
    assert tree["feature"][0] != -1  # the root splits
    tree["feature"][0] = 99
    for bad in (doc, dict(doc, trees=[])):
        model_path.write_text(json.dumps(bad))
        code, out, err = _run(capsys, ["classify", "--model", str(model_path),
                                       "--features", str(features)])
        assert (code, out) == (1, "")
        assert "ValueError" in err and "Traceback" not in err
    assert "forest is empty" in err


# Node 0 splits feature 3 into leaves 1 and 2.
_STUMP = {"feature": [3, -1, -1], "threshold": [0.5, 0.0, 0.0],
          "left": [1, -1, -1], "right": [2, -1, -1],
          "counts": [[], [4, 0], [0, 3]]}


@pytest.mark.parametrize("field,path,value", [
    ("feature[0]", ("trees", 0, "feature", 0), 3.7),
    ("counts[1][0]", ("trees", 0, "counts", 1), [1.9, 0.2]),
    ("counts[2][0]", ("trees", 0, "counts", 2, 0), -1),
    ("threshold[0]", ("trees", 0, "threshold", 0), float("nan")),
    ("threshold[0]", ("trees", 0, "threshold", 0), float("inf")),
    ("vocabulary", ("vocabulary",), ["yes", "yes"]),
    ("train_seed", ("train_seed",), "x"),
    ("training_accuracy", ("training_accuracy",), 7.5),
    ("n_trees", ("n_trees",), 99),
    ("property", ("property",), None),
    ("property", ("property",), ["a,b"]),
], ids=["float-feature", "float-counts", "negative-count", "nan-threshold",
        "inf-threshold", "repeated-label", "string-seed", "accuracy-above-1",
        "n-trees-off-the-forest", "null-property", "list-property"])
def test_classify_refuses_a_malformed_model_field_naming_it(
        capsys, tmp_path, corpus_dir, field, path, value):
    model_path = tmp_path / "model.json"
    assert _run(capsys, ["train", "--property", "funnel",
                         "--features-dir", str(corpus_dir), "--trees", "3",
                         "--out", str(model_path)])[0] == 0
    features = next(corpus_dir.iterdir())
    doc = json.loads(model_path.read_text())
    doc["trees"][0] = json.loads(json.dumps(_STUMP))
    for spoil in (False, True):
        if spoil:
            *keys, last = path
            target = doc
            for key in keys:
                target = target[key]
            target[last] = value
        model_path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, ["classify", "--model", str(model_path),
                                       "--features", str(features)])
        assert code == (1 if spoil else 0), err
    assert out == ""
    assert "ValueError" in err and field in err and "Traceback" not in err
