from .features import (
    FEATURE_NAMES,
    FeatureVector,
    compute_features,
    meta_model_r2,
    nearest_better_ratio,
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
    "meta_model_r2",
    "nearest_better_ratio",
    "normalize_features",
]
