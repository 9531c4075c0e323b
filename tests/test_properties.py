import dataclasses
import json

import numpy as np
import pytest

from landscape_atlas.ela import (
    FEATURE_NAMES, FeatureVector, compute_features, lhs_sample,
)
from landscape_atlas.errors import (
    ManifestMismatch, SingleClass, TooFewGroups, TooFewRows,
)
from landscape_atlas.properties import (
    PROPERTY_VOCABULARIES, LabelledRow, PropertyModel, build_labelled_rows,
    load_labels, lofo_cv, predict, train, vocabulary_for,
)
from landscape_atlas.problems import list_problems, resolve
from landscape_atlas.properties import forest


def _fv(rng, shift=0.0):
    vals = rng.normal(size=31)
    vals[3] += shift  # one informative coordinate
    return FeatureVector(values=dict(zip(FEATURE_NAMES, map(float, vals))),
                         degenerate=())


def _separable_rows(n_per_class=8, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_per_class):
        rows.append(LabelledRow(_fv(rng, -8.0), "yes", f"g{i % 4}"))
        rows.append(LabelledRow(_fv(rng, +8.0), "no", f"g{4 + i % 4}"))
    return rows


def test_separable_data_is_memorized():
    rows = _separable_rows()
    model = train(rows, "funnel", train_seed=0, n_trees=21)
    assert model.training_accuracy == 1.0
    labels, _ = predict(model, [row.features for row in rows])
    assert labels == [row.label for row in rows]


def test_training_is_deterministic():
    rows = _separable_rows()
    a = train(rows, "funnel", train_seed=3, n_trees=15)
    b = train(rows, "funnel", train_seed=3, n_trees=15)
    assert a.to_json() == b.to_json()
    c = train(rows, "funnel", train_seed=4, n_trees=15)
    assert a.to_json() != c.to_json()


def test_training_ignores_row_order():
    rows = _separable_rows()
    shuffled = list(rows)
    np.random.default_rng(99).shuffle(shuffled)
    assert (train(rows, "funnel", 0, n_trees=15).to_json()
            == train(shuffled, "funnel", 0, n_trees=15).to_json())


def test_vote_shares_form_a_probability_vector():
    rows = _separable_rows()
    model = train(rows, "funnel", 0, n_trees=15)
    rng = np.random.default_rng(1)
    vectors = [_fv(rng, float(rng.normal())) for _ in range(10)]
    labels, shares = predict(model, vectors)
    assert shares.shape == (10, len(model.vocabulary))
    assert np.all(shares >= 0.0)
    assert np.all(np.abs(shares.sum(axis=1) - 1.0) <= 1e-12)
    # each label is the first with the largest share
    assert labels == [model.vocabulary[j] for j in np.argmax(shares, axis=1)]


def test_prediction_requires_the_training_manifest():
    model = train(_separable_rows(), "funnel", 0, n_trees=9)
    rng = np.random.default_rng(2)
    good = _fv(rng)
    partial = dict(good.values)
    partial.pop("pca.first_pc_share")
    with pytest.raises(ManifestMismatch):
        predict(model, [good, partial])
    renamed = {("x_" + k if k == "basic.dim" else k): v
               for k, v in good.values.items()}
    with pytest.raises(ManifestMismatch):
        predict(model, [renamed])


def test_training_input_validation():
    rows = _separable_rows()
    with pytest.raises(TooFewRows):
        train(rows[:6], "funnel", 0, n_trees=5)
    same = [LabelledRow(r.features, "yes", r.group) for r in rows]
    with pytest.raises(SingleClass):
        train(same, "funnel", 0, n_trees=5)
    with pytest.raises(ValueError):
        train(rows, "multimodality", 0, n_trees=5)  # labels outside vocabulary


def test_vocabularies_are_fixed_for_known_properties():
    assert vocabulary_for("funnel", ["no", "yes"]) == ("yes", "no")
    assert vocabulary_for("separability", ["none"]) == ("none", "partial", "full")
    # ad-hoc property names fall back to sorted distinct labels
    assert vocabulary_for("shuffled", ["b", "a", "b"]) == ("a", "b")
    with pytest.raises(ValueError):
        vocabulary_for("funnel", ["maybe"])


def test_model_json_round_trip():
    model = train(_separable_rows(), "funnel", 0, n_trees=7)
    clone = PropertyModel.from_json(model.to_json())
    assert clone == model
    rng = np.random.default_rng(5)
    fv = _fv(rng)
    labels, shares = predict(model, [fv])
    clone_labels, clone_shares = predict(clone, [fv])
    assert clone_labels == labels
    assert clone_shares.tobytes() == shares.tobytes()
    with pytest.raises(ValueError):
        PropertyModel.from_json('{"schema_version": 99}')


# Node 0 splits feature 3 into leaf 1 and node 2; node 2 splits feature 5
# into leaves 3 and 4: the depth-first numbering _grow writes.
_TREE = {"feature": [3, -1, 5, -1, -1], "threshold": [0.5, 0, -1.0, 0, 0],
         "left": [1, -1, 3, -1, -1], "right": [2, -1, 4, -1, -1],
         "counts": [[], [4, 0], [], [1, 0], [0, 3]]}


@pytest.mark.parametrize("change", [
    {"left": [0, -1, 3, -1, -1]},
    {"left": [None, -1, 3, -1, -1]},
    {"left": [1, -1, 0, -1, -1]},
    {"right": [2, -1, 5, -1, -1]},
    {"feature": [99, -1, 5, -1, -1]},
    {"feature": [3, -1, -2, -1, -1]},
    {"counts": [[], [4, 0], [], [], [0, 3]]},
    {"counts": [[], [4, 0, 0], [], [1, 0], [0, 3]]},
    {"threshold": [0.5, 0, -1.0, 0]},
    {key: [] for key in _TREE},
    None,
], ids=["node-0-is-its-own-child", "null-child", "child-before-parent",
        "child-out-of-range", "feature-outside-manifest", "negative-feature",
        "leaf-counts-missing", "leaf-counts-off-vocabulary",
        "arrays-differ-in-length", "no-nodes", "empty-forest"])
def test_malformed_model_trees_are_refused_on_load(change):
    doc = json.loads(train(_separable_rows(), "funnel", 0, n_trees=3).to_json())
    doc["trees"][0] = _TREE
    assert PropertyModel.from_json(json.dumps(doc)).trees[0].left[2] == 3
    if change is None:  # a forest of no trees
        doc["trees"] = []
    else:
        doc["trees"][0] = dict(_TREE, **change)
    with pytest.raises(ValueError):
        PropertyModel.from_json(json.dumps(doc))


def test_model_json_can_carry_metadata():
    model = train(_separable_rows(), "funnel", 0, n_trees=5)
    doc = json.loads(model.to_json(metadata={"tool": "x"}))
    assert doc["metadata"] == {"tool": "x"}


@pytest.fixture(scope="module")
def d2_rows():
    """The funnel corpus at d = 2, n = 20."""
    return build_labelled_rows("funnel", dimension=2, n=20)


def _sphere(dim: int, n: int) -> FeatureVector:
    return compute_features(lhs_sample(resolve("sphere", 1, dim), n, 1))


def test_train_records_the_set_up_its_rows_share(d2_rows):
    model = train(d2_rows, "funnel", 0, n_trees=3)
    assert (model.dim, model.n) == (2, 20)
    # the model file carries only the metadata it is given
    assert "metadata" not in json.loads(model.to_json())
    mixed = d2_rows + build_labelled_rows("funnel", dimension=3, n=20)
    model = train(mixed, "funnel", 0, n_trees=3)
    assert (model.dim, model.n) == (None, 20)
    # random vectors share no set-up
    model = train(_separable_rows(), "funnel", 0, n_trees=3)
    assert (model.dim, model.n) == (None, None)


@pytest.mark.parametrize("dim, n, feature", [(3, 20, "basic.dim"),
                                             (2, 30, "basic.n_obs")])
def test_predict_refuses_a_vector_of_another_set_up(d2_rows, dim, n,
                                                    feature):
    model = train(d2_rows, "funnel", 0, n_trees=3)
    same, other = _sphere(2, 20), _sphere(dim, n)
    labels, _ = predict(model, [same, dict(same.values)])
    assert len(labels) == 2
    with pytest.raises(ManifestMismatch, match=f"vector 1: {feature} = "):
        predict(model, [same, other])
    with pytest.raises(ManifestMismatch, match=f"vector 0: {feature} = "):
        predict(model, [dict(other.values)])
    # a model that records no set-up labels any set-up, as a model file
    # without metadata does
    bare = dataclasses.replace(model, dim=None, n=None)
    assert len(predict(bare, [other])[0]) == 1


def test_lofo_cv_builds_one_fold_per_group():
    rows = _separable_rows()
    out = lofo_cv(rows, "funnel", train_seed=0, n_trees=15)
    assert len(out.folds) == len({r.group for r in rows})
    assert [f.group for f in out.folds] == sorted({r.group for r in rows})
    accs = [f.accuracy for f in out.folds]
    assert out.mean_accuracy == pytest.approx(sum(accs) / len(accs), abs=1e-15)


def test_lofo_cv_requires_three_groups():
    rows = [LabelledRow(r.features, r.label, "g0" if r.label == "yes" else "g1")
            for r in _separable_rows()]
    with pytest.raises(TooFewGroups):
        lofo_cv(rows, "funnel", 0, n_trees=5)


@pytest.mark.parametrize("error, group, rows", [
    # holding out g1 leaves only "yes" rows
    (SingleClass, "g1",
     [LabelledRow(r.features, "no" if r.group == "g1" else "yes", r.group)
      for r in _separable_rows()]),
    # holding out g3, which holds most rows, leaves 6 rows to train on
    (TooFewRows, "g3",
     [LabelledRow(r.features, r.label, r.group if i < 6 else "g3")
      for i, r in enumerate(_separable_rows())]),
])
def test_lofo_cv_checks_every_fold_before_the_first(monkeypatch, error, group,
                                                    rows):
    grown = []
    monkeypatch.setattr(forest, "_grow",
                        lambda *args: grown.append(args) or [])
    with pytest.raises(error, match=f"without group '{group}'"):
        lofo_cv(rows, "funnel", train_seed=0, n_trees=3)
    assert grown == []


@pytest.mark.parametrize("fit", [train, lofo_cv], ids=["train", "lofo_cv"])
@pytest.mark.parametrize("n_trees", [0, -2])
def test_fewer_than_one_tree_is_refused_before_growing(monkeypatch, fit,
                                                       n_trees):
    grown = []
    monkeypatch.setattr(forest, "_grow",
                        lambda *args: grown.append(args) or [])
    with pytest.raises(ValueError, match="n_trees"):
        fit(_separable_rows(), "funnel", 0, n_trees=n_trees)
    assert grown == []


def test_lofo_cv_never_leaks_the_held_out_group():
    # every group gets its own label; with no leakage the held-out label is
    # unknown to the fold's model, so every fold must score zero
    rng = np.random.default_rng(6)
    rows = []
    for g in range(4):
        for _ in range(5):
            rows.append(LabelledRow(_fv(rng, 5.0 * g), f"label{g}", f"fn{g}"))
    out = lofo_cv(rows, "adhoc", train_seed=0, n_trees=9)
    assert out.mean_accuracy == 0.0


def test_shipped_labels_cover_the_baseline_suite():
    table = load_labels()
    assert list(table) == [row["problem"] for row in list_problems()
                           if row["suite"] == "baseline"]
    for fn, props in table.items():
        assert set(props.keys()) >= set(PROPERTY_VOCABULARIES.keys())
        for prop, vocab in PROPERTY_VOCABULARIES.items():
            assert props[prop] in vocab, (fn, prop, props[prop])


def test_a_caller_changing_its_label_table_changes_no_other_callers():
    table = load_labels()
    assert table["sphere"]["funnel"] == "yes"
    table["sphere"]["funnel"] = "no"
    try:
        assert load_labels()["sphere"]["funnel"] == "yes"
        rows = build_labelled_rows("funnel", dimension=2, n=20)
        assert {r.label for r in rows if r.group == "sphere"} == {"yes"}
    finally:  # a shared table would stay changed for later tests
        table["sphere"]["funnel"] = "yes"


def test_labelled_corpus_rows_carry_function_groups():
    rows = build_labelled_rows("multimodality", dimension=2, n=20,
                               sample_seed=1, feature_seed=0)
    assert len(rows) == 80  # 16 functions x 5 instances
    groups = {r.group for r in rows}
    assert groups == set(load_labels())
    vocab = PROPERTY_VOCABULARIES["multimodality"]
    assert all(r.label in vocab for r in rows)
    by_group = {g: [r for r in rows if r.group == g] for g in groups}
    for g, rs in by_group.items():
        assert len(rs) == 5
        assert len({r.label for r in rs}) == 1  # instances inherit labels
