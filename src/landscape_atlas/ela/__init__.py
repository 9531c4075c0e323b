from .features import (
    FEATURE_NAMES,
    FeatureVector,
    compute_features,
    normalize_features,
)
from .sampling import SampleSet, lhs_points, lhs_sample

__all__ = [
    "FEATURE_NAMES",
    "FeatureVector",
    "SampleSet",
    "compute_features",
    "lhs_points",
    "lhs_sample",
    "normalize_features",
]
