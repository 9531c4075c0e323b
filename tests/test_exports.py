"""Export hygiene: every advertised name exists and deleted names stay gone."""
import dataclasses
import importlib

import pytest

PACKAGES = ("landscape_atlas", "landscape_atlas.ela", "landscape_atlas.mario",
            "landscape_atlas.problems", "landscape_atlas.properties")
DELETED = ("CountingEvaluator", "SampleProvenance", "provenance",
           "shekel_eval", "SHEKEL_SEEDS", "decode_level", "simulate_trace",
           "meta_model_r2", "nearest_better_ratio", "AllEqualFitness",
           "RankDeficient", "ConstantResponse", "Prediction",
           "_feature_array", "labelled_functions", "_is_int", "_field",
           "_load_feature_doc", "_feature_dir", "_feature_docs")
#: The features file's record, writer and readers, each exported by one
#: package only.
FEATURES_FILE = ("FeatureFile", "feature_documents", "read_features",
                 "read_features_dir")


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    missing = [n for n in package.__all__ if not hasattr(package, n)]
    assert missing == []
    assert len(set(package.__all__)) == len(package.__all__)


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from landscape_atlas import *", namespace)
    assert "evaluate_batch" in namespace


def test_each_features_file_name_has_one_home():
    homes = {name: [p for p in PACKAGES
                    if name in importlib.import_module(p).__all__]
             for name in FEATURES_FILE}
    assert homes == {name: ["landscape_atlas.ela"] for name in FEATURES_FILE}


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
