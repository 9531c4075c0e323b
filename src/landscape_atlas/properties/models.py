"""Training, prediction and grouped cross-validation for the eight
high-level landscape properties."""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..ela.features import FEATURE_NAMES, FeatureVector
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


@dataclass(frozen=True)
class PropertyModel:
    property_name: str
    vocabulary: tuple[str, ...]
    manifest: tuple[str, ...]
    train_seed: int
    trees: tuple[Tree, ...]
    training_accuracy: float

    def to_json(self, metadata: dict | None = None) -> str:
        doc = {
            "schema_version": MODEL_SCHEMA_VERSION,
            "property": self.property_name,
            "vocabulary": list(self.vocabulary),
            "manifest": list(self.manifest),
            "train_seed": self.train_seed,
            "n_trees": len(self.trees),
            "training_accuracy": self.training_accuracy,
            "trees": [t.to_dict() for t in self.trees],
        }
        if metadata:
            doc["metadata"] = metadata
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "PropertyModel":
        doc = json.loads(text)
        if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported model schema {doc.get('schema_version')!r}")
        if type(doc["property"]) is not str:
            raise ValueError(f"malformed model property {doc['property']!r}: "
                             f"not a string")
        vocabulary = doc["vocabulary"]
        if type(vocabulary) is not list or \
                not all(type(v) is str for v in vocabulary) or \
                len(set(vocabulary)) < len(vocabulary):
            raise ValueError(f"malformed model vocabulary {vocabulary!r}: "
                             f"labels must be distinct strings")
        trees, where = [], ""
        try:
            for at, tree in enumerate(doc["trees"]):
                where = f"tree {at}: "
                trees.append(Tree.from_dict(tree, len(doc["manifest"]),
                                            len(vocabulary)))
        except (TypeError, ValueError) as exc:
            # TypeError: a null or a number where a list belongs
            raise ValueError(f"malformed model trees: {where}{exc}") from exc
        if not trees:
            raise ValueError("malformed model trees: the forest is empty")
        seed, accuracy = doc["train_seed"], doc["training_accuracy"]
        if type(seed) is not int or seed < 0:
            raise ValueError(f"malformed model train_seed {seed!r}: not an "
                             f"integer >= 0")
        if type(accuracy) not in (int, float) or not 0 <= accuracy <= 1:
            raise ValueError(f"malformed model training_accuracy "
                             f"{accuracy!r}: not a number in [0, 1]")
        if type(doc["n_trees"]) is not int or doc["n_trees"] != len(trees):
            raise ValueError(f"malformed model n_trees {doc['n_trees']!r}: "
                             f"the forest has {len(trees)} trees")
        return PropertyModel(
            property_name=doc["property"],
            vocabulary=tuple(vocabulary),
            manifest=tuple(doc["manifest"]),
            train_seed=seed,
            trees=tuple(trees),
            training_accuracy=accuracy,
        )


@dataclass(frozen=True)
class Prediction:
    label: str
    vote_shares: dict[str, float]


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
    )


def _vote(trees: tuple[Tree, ...], X: np.ndarray,
          vocab: tuple[str, ...]) -> tuple[list[str], np.ndarray]:
    """The forest's label for each row of X (most votes, ties to the
    earlier label) and the rows' vote shares."""
    shares = forest_votes(trees, X, len(vocab))
    return [vocab[j] for j in np.argmax(shares, axis=1)], shares


def _feature_array(model: PropertyModel,
                   fv: FeatureVector | Mapping[str, float]) -> np.ndarray:
    values = fv.values if isinstance(fv, FeatureVector) else fv
    if tuple(values.keys()) != model.manifest:
        raise ManifestMismatch("feature names do not match the model manifest")
    return np.array([float(values[n]) for n in model.manifest])


def predict(model: PropertyModel,
            fv: FeatureVector | Mapping[str, float]) -> Prediction:
    labels, shares = _vote(model.trees, _feature_array(model, fv)[None, :],
                           model.vocabulary)
    return Prediction(
        label=labels[0],
        vote_shares={v: float(s) for v, s in zip(model.vocabulary, shares[0])},
    )


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
