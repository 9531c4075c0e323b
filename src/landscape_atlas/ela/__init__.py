from .features import (
    FEATURE_NAMES,
    FeatureVector,
    compute_features,
    normalize_features,
)
from .files import FeatureFile, feature_documents, read_features, read_features_dir
from .sampling import SampleSet, lhs_points, lhs_sample

__all__ = [
    "FEATURE_NAMES",
    "FeatureFile",
    "FeatureVector",
    "SampleSet",
    "compute_features",
    "feature_documents",
    "lhs_points",
    "lhs_sample",
    "normalize_features",
    "read_features",
    "read_features_dir",
]
