"""Export hygiene: every advertised name exists and deleted names stay gone."""
import dataclasses
import importlib
import os
import subprocess
import sys

import pytest

PACKAGES = ("landscape_atlas", "landscape_atlas.ela", "landscape_atlas.mario",
            "landscape_atlas.problems", "landscape_atlas.properties")
DELETED = ("CountingEvaluator", "SampleProvenance", "provenance",
           "shekel_eval", "SHEKEL_SEEDS", "decode_level", "simulate_trace",
           "meta_model_r2", "nearest_better_ratio", "AllEqualFitness",
           "RankDeficient", "ConstantResponse", "Prediction",
           "_feature_array", "labelled_functions", "_is_int", "_field",
           "_load_feature_doc", "_feature_dir", "_feature_docs")
#: The top level exports only the names that no subpackage exports.
TOP_LEVEL = ("Embedding", "EmbeddingRow", "WalkSpec", "WalkTrace",
             "__version__", "default_step", "diagonal_walk", "errors",
             "kl_trace", "tsne_embed", "walk_bundle")
#: Subpackage names that the top level no longer re-exports.
SUBPACKAGE_ONLY = (
    "BoxDomain", "FEATURE_NAMES", "FeatureVector", "LabelledRow",
    "PROPERTY_NAMES", "PROPERTY_VOCABULARIES", "ProblemId", "ProblemInstance",
    "PropertyModel", "SampleSet", "SimulationResult", "TileGrid", "air_time",
    "basic_fitness", "build_labelled_rows", "compute_features", "concatenate",
    "decode_instance_level", "decode_levels", "decoder_params", "evaluate",
    "evaluate_batch", "instance_agent", "lhs_sample", "list_problems",
    "lofo_cv", "normalize_features", "parse_ascii", "predict", "render_ascii",
    "resolve", "simulate", "time_taken", "train")


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    missing = [n for n in package.__all__ if not hasattr(package, n)]
    assert missing == []
    assert len(set(package.__all__)) == len(package.__all__)


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from landscape_atlas import *", namespace)
    names = set(namespace) - {"__builtins__"}
    assert names == set(TOP_LEVEL)  # so none of SUBPACKAGE_ONLY


def test_each_home_is_reached_from_the_top_level_package():
    # A fresh interpreter: in this one, other tests have imported every home.
    code = "import landscape_atlas as la; " + "; ".join(
        f"la.{p.split('.')[-1]}.__all__" for p in PACKAGES[1:])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_each_exported_name_has_one_home():
    homes: dict = {}
    for package in PACKAGES:
        for name in importlib.import_module(package).__all__:
            homes.setdefault(name, []).append(package)
    assert {n: h for n, h in homes.items() if len(h) > 1} == {}
    assert set(SUBPACKAGE_ONLY) <= set(homes)


def test_deleted_names_are_gone():
    from landscape_atlas import cli, errors
    from landscape_atlas.ela import SampleSet, features, sampling
    from landscape_atlas.mario import decoder, sim
    from landscape_atlas.problems import baselines, core
    from landscape_atlas.properties import corpus, forest, models
    modules = [importlib.import_module(n) for n in PACKAGES] + [
        sampling, features, core, baselines, decoder, sim, errors, corpus,
        models, cli]
    for module in modules:
        for name in DELETED:
            assert name not in getattr(module, "__all__", ())
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert "provenance" not in {f.name for f in dataclasses.fields(SampleSet)}
    # the model file reads and writes trees, not the Tree class
    assert not hasattr(forest.Tree, "to_dict")
    assert not hasattr(forest.Tree, "from_dict")
