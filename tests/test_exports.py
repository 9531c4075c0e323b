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
           "_feature_array", "labelled_functions")


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


def test_deleted_names_are_gone():
    from landscape_atlas import errors
    from landscape_atlas.ela import SampleSet, features, sampling
    from landscape_atlas.mario import decoder, sim
    from landscape_atlas.problems import baselines, core
    from landscape_atlas.properties import corpus, models
    modules = [importlib.import_module(n) for n in PACKAGES] + [
        sampling, features, core, baselines, decoder, sim, errors, corpus,
        models]
    for module in modules:
        for name in DELETED:
            assert name not in getattr(module, "__all__", ())
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert "provenance" not in {f.name for f in dataclasses.fields(SampleSet)}
