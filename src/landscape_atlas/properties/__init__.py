from .corpus import (
    CORPUS_INSTANCE_SEEDS,
    build_labelled_rows,
    load_labels,
)
from .models import (
    DEFAULT_TREES,
    PROPERTY_NAMES,
    PROPERTY_VOCABULARIES,
    CVResult,
    FoldResult,
    LabelledRow,
    PropertyModel,
    lofo_cv,
    predict,
    train,
    vocabulary_for,
)

__all__ = [
    "CORPUS_INSTANCE_SEEDS",
    "CVResult",
    "DEFAULT_TREES",
    "FoldResult",
    "LabelledRow",
    "PROPERTY_NAMES",
    "PROPERTY_VOCABULARIES",
    "PropertyModel",
    "build_labelled_rows",
    "load_labels",
    "lofo_cv",
    "predict",
    "train",
    "vocabulary_for",
]
