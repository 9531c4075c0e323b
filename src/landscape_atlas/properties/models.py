"""Training, prediction and grouped cross-validation for the eight
high-level landscape properties."""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .. import _fields
from ..ela.features import FEATURE_NAMES, FeatureVector
from ..ela.files import FeatureFile
from ..errors import ManifestMismatch, SingleClass, TooFewGroups, TooFewRows
from .forest import Tree, forest_votes, grow_forest

MODEL_SCHEMA_VERSION = 1
DEFAULT_TREES = 200

#: The eight property names with their fixed label vocabularies.  The
#: vocabulary order is the tie-breaking order for predictions.
PROPERTY_VOCABULARIES: dict[str, tuple[str, ...]] = {
    "multimodality": ("none", "low", "medium", "high"),
    "global_structure": ("none", "weak", "strong"),
    "separability": ("none", "partial", "full"),
    "variable_scaling": ("none", "low", "medium", "high"),
    "search_space_homogeneity": ("low", "medium", "high"),
    "basin_size_homogeneity": ("none", "low", "medium", "high"),
    "global_local_contrast": ("none", "low", "medium", "high"),
    "funnel": ("yes", "no"),
}

PROPERTY_NAMES: tuple[str, ...] = tuple(PROPERTY_VOCABULARIES)


@dataclass(frozen=True)
class LabelledRow:
    features: FeatureVector
    label: str
    group: str


_DISTINCT_STRINGS = (
    lambda v: type(v) is list and all(type(s) is str for s in v)
    and len(set(v)) == len(v), "not a list of distinct strings")

#: The node arrays of one tree of a model file, in ``Tree`` field order.
_TREE = {"feature": [_fields.at_least(-1)], "threshold": [_fields.REAL],
         "left": [_fields.at_least(-1)], "right": [_fields.at_least(-1)],
         "counts": [[_fields.at_least(0)]]}

#: The fields of a model file.  An optional ``metadata`` object records the
#: set-up the forest was trained at.
_FIELDS = {
    "schema_version": (lambda v: type(v) is int and v == MODEL_SCHEMA_VERSION,
                       f"not {MODEL_SCHEMA_VERSION}, the schema read here"),
    "property": (lambda v: type(v) is str, "not a string"),
    "vocabulary": _DISTINCT_STRINGS,
    "manifest": _DISTINCT_STRINGS,
    "train_seed": _fields.at_least(0),
    "training_accuracy": (lambda v: _fields.REAL[0](v) and 0 <= v <= 1,
                          "not a number in [0, 1]"),
    "n_trees": _fields.INT,
    "trees": [_TREE],
}


@dataclass(frozen=True)
class PropertyModel:
    property_name: str
    vocabulary: tuple[str, ...]
    manifest: tuple[str, ...]
    train_seed: int
    trees: tuple[Tree, ...]
    training_accuracy: float
    #: the set-up that predict holds feature vectors to: the basic.dim and
    #: basic.n_obs that train's rows share, or a model file's metadata.dim
    #: and metadata.n; None where the rows share none or the file records
    #: none
    dim: int | None = None
    n: int | None = None

    def to_json(self, metadata: dict | None = None) -> str:
        doc = dict(zip(_FIELDS, (  # in _FIELDS order
            MODEL_SCHEMA_VERSION, self.property_name, self.vocabulary,
            self.manifest, self.train_seed, self.training_accuracy,
            len(self.trees),
            [{key: getattr(t, key) for key in _TREE} for t in self.trees])))
        if metadata:
            doc["metadata"] = metadata
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(data: str | bytes, source: str = "model") -> "PropertyModel":
        """The model that data, a model file's text, holds.  A ValueError
        names source and the field for each of: a field of ``_FIELDS`` that
        is missing or malformed; a vocabulary other than ``vocabulary_for``
        gives for its property and labels; a tree that ``_tree`` refuses;
        no trees, or an ``n_trees`` other than their number; and a given
        metadata.dim or metadata.n that is not an integer >= 1."""
        doc = _fields.load(data, source, _FIELDS)
        prop, vocabulary = doc["property"], doc["vocabulary"]
        try:
            ordered = vocabulary_for(prop, vocabulary) == tuple(vocabulary)
        except ValueError:  # a label outside the property's vocabulary
            ordered = False
        if not ordered:
            raise _fields.malformed(source, "vocabulary", vocabulary,
                                    f"not the labels of {prop!r} in order")
        trees = tuple(_tree(source, at, tree, len(doc["manifest"]),
                            len(vocabulary))
                      for at, tree in enumerate(doc["trees"]))
        if not trees:
            raise _fields.malformed(source, "trees", [], "the forest is empty")
        if doc["n_trees"] != len(trees):
            raise _fields.malformed(source, "n_trees", doc["n_trees"],
                                    f"the forest has {len(trees)} trees")
        metadata = _fields.check(source, doc.get("metadata", {}), {},
                                 "metadata")
        _fields.check(source, metadata, {key: _fields.at_least(1) for key
                                         in ("dim", "n") if key in metadata},
                      "metadata")
        return PropertyModel(prop, tuple(vocabulary), tuple(doc["manifest"]),
                             doc["train_seed"], trees, doc["training_accuracy"],
                             metadata.get("dim"), metadata.get("n"))


def _tree(source: str, at: int, d: dict, n_features: int,
          n_classes: int) -> Tree:
    """Tree at of a model file, unless ``_grow`` could not have written it:
    node arrays of one length, each node a leaf that counts n_classes
    classes or a split of one of n_features features into two later nodes
    (so that every descent ends)."""
    n = len(d["feature"])
    if not n or any(len(d[key]) != n for key in _TREE):
        raise _fields.malformed(source, f"trees[{at}]",
                                {key: len(d[key]) for key in _TREE},
                                "node arrays not of one non-zero length")
    for i, node in enumerate(zip(*(d[key] for key in _TREE))):
        f, _, lo, hi, c = node
        if not (len(c) == n_classes if f == -1 else
                f < n_features and i < lo < n and i < hi < n):
            raise _fields.malformed(
                source, f"trees[{at}] node {i}", dict(zip(_TREE, node)),
                f"neither a leaf that counts {n_classes} classes nor a split "
                f"of one of {n_features} features into two later nodes")
    return Tree(tuple(d["feature"]), tuple(map(float, d["threshold"])),
                tuple(d["left"]), tuple(d["right"]),
                tuple(map(tuple, d["counts"])))


@dataclass(frozen=True)
class FoldResult:
    group: str
    n_test: int
    accuracy: float


@dataclass(frozen=True)
class CVResult:
    property_name: str
    folds: tuple[FoldResult, ...]
    mean_accuracy: float


def vocabulary_for(property_name: str,
                   labels: Sequence[str]) -> tuple[str, ...]:
    """Fixed vocabulary for known properties; sorted distinct labels for
    ad-hoc ones (e.g. permutation-baseline experiments)."""
    vocab = PROPERTY_VOCABULARIES.get(property_name)
    if vocab is None:
        return tuple(sorted(set(labels)))
    unknown = set(labels) - set(vocab)
    if unknown:
        raise ValueError(
            f"labels {sorted(unknown)} outside the {property_name} vocabulary")
    return vocab


def _canonical_order(rows: Sequence[LabelledRow]) -> list[LabelledRow]:
    # Sorting before training makes the model independent of row order.
    return sorted(rows, key=lambda r: (r.group, r.label,
                                       tuple(r.features.values.values())))


def _check_training_rows(labels: Sequence[str], where: str = "") -> None:
    if len(labels) < 10:
        raise TooFewRows(f"need >= 10 training rows{where}, got {len(labels)}")
    if len(set(labels)) < 2:
        raise SingleClass(
            f"training labels{where} contain a single distinct value")


def _matrix(rows: Sequence[LabelledRow]) -> np.ndarray:
    return np.stack([r.features.as_array() for r in rows])


def _fit(rows: Sequence[LabelledRow], scored: Sequence[LabelledRow],
         property_name: str, train_seed: int, n_trees: int) -> tuple:
    """(vocabulary, forest, accuracy): the forest grown on rows in canonical
    order, and the share of the scored rows it labels right."""
    if n_trees < 1:
        raise ValueError(f"need n_trees >= 1, got {n_trees}")
    vocab = vocabulary_for(property_name, [r.label for r in rows])
    ordered = _canonical_order(rows)
    y = np.array([vocab.index(r.label) for r in ordered])
    trees = grow_forest(_matrix(ordered), y, len(vocab), train_seed, n_trees)
    predicted, _ = _vote(trees, _matrix(scored), vocab)
    hits = sum(p == r.label for p, r in zip(predicted, scored))
    return vocab, trees, hits / len(scored)


def train(rows: Sequence[LabelledRow], property_name: str, train_seed: int,
          n_trees: int = DEFAULT_TREES) -> PropertyModel:
    _check_training_rows([r.label for r in rows])
    vocab, trees, accuracy = _fit(rows, rows, property_name, train_seed,
                                  n_trees)
    return PropertyModel(
        property_name=property_name,
        vocabulary=vocab,
        manifest=FEATURE_NAMES,
        train_seed=train_seed,
        trees=trees,
        training_accuracy=accuracy,
        dim=_shared(rows, "basic.dim"),
        n=_shared(rows, "basic.n_obs"),
    )


def _shared(rows: Sequence[LabelledRow], feature: str) -> int | None:
    """The whole number >= 1 that feature holds in every row, else None."""
    values = {float(r.features.values[feature]) for r in rows}
    value = values.pop() if len(values) == 1 else 0.0
    return int(value) if value >= 1 and value.is_integer() else None


def _vote(trees: tuple[Tree, ...], X: np.ndarray,
          vocab: tuple[str, ...]) -> tuple[list[str], np.ndarray]:
    """The forest's label for each row of X (most votes, ties to the
    earlier label) and the rows' vote shares."""
    shares = forest_votes(trees, X, len(vocab))
    return [vocab[j] for j in np.argmax(shares, axis=1)], shares


def predict(model: PropertyModel,
            vectors: Sequence[FeatureFile | FeatureVector | Mapping[str, float]]
            ) -> tuple[list[str], np.ndarray]:
    """The model's label for each feature vector and the vectors' vote
    shares, one column per vocabulary label, from one vote over all of
    them.  Every vector must name the model's manifest in order, and its
    basic.dim and basic.n_obs must be the model's dim and n where the model
    has them.  Otherwise a ManifestMismatch names the vector: a features
    file by its path, any other vector by its index."""
    X = []
    for i, fv in enumerate(vectors):
        source = f"vector {i}"
        if isinstance(fv, FeatureFile):
            source, fv = fv.path, fv.vector
        values = fv.values if isinstance(fv, FeatureVector) else fv
        if tuple(values.keys()) != model.manifest:
            raise ManifestMismatch(
                f"{source}: feature names do not match the model manifest")
        for key, feature in (("dim", "basic.dim"), ("n", "basic.n_obs")):
            trained, value = getattr(model, key), float(values[feature])
            if trained is not None and value != trained:
                raise ManifestMismatch(
                    f"{source}: {feature} = {value:.17g}, but the model "
                    f"was trained at {key} = {trained}")
        X.append([float(values[n]) for n in model.manifest])
    return _vote(model.trees, np.array(X), model.vocabulary)


def lofo_cv(rows: Sequence[LabelledRow], property_name: str,
            train_seed: int = 0, n_trees: int = DEFAULT_TREES) -> CVResult:
    """Leave-one-group-out cross-validation: every fold withholds all
    rows of one source group, so a group never predicts itself.  Every
    fold's training rows are checked before the first fold trains."""
    groups = sorted({r.group for r in rows})
    if len(groups) < 3:
        raise TooFewGroups(f"need >= 3 source groups, got {len(groups)}")
    for g in groups:
        _check_training_rows([r.label for r in rows if r.group != g],
                             f" without group {g!r}")
    folds = []
    for g in groups:
        test = [r for r in rows if r.group == g]
        *_, accuracy = _fit([r for r in rows if r.group != g], test,
                            property_name, train_seed, n_trees)
        folds.append(FoldResult(group=g, n_test=len(test), accuracy=accuracy))
    mean = sum(f.accuracy for f in folds) / len(folds)
    return CVResult(property_name=property_name, folds=tuple(folds),
                    mean_accuracy=mean)
