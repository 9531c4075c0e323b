"""Fitness-landscape analysis of level-generation and baseline problems.

The package covers the full pipeline: a registry of 28 level-generation
problems (latent vector -> tile grid -> fitness) plus seeded analytic
baselines, diagonal walks, Latin hypercube sampling, a 31-feature
landscape battery, random-forest property prediction, and an exact t-SNE
similarity map.  Everything is seed-deterministic.
"""

__version__ = "0.1.0"

from . import errors
from .ela import (
    FEATURE_NAMES,
    FeatureVector,
    SampleSet,
    compute_features,
    lhs_sample,
    normalize_features,
)
from .mario.decoder import decode_levels, decoder_params
from .mario.sim import SimulationResult, air_time, basic_fitness, simulate, time_taken
from .mario.tiles import TileGrid, concatenate, parse_ascii, render_ascii
from .problems.core import (
    BoxDomain,
    ProblemId,
    ProblemInstance,
    decode_instance_level,
    evaluate,
    evaluate_batch,
    instance_agent,
    list_problems,
    resolve,
)
from .properties import (
    PROPERTY_NAMES,
    PROPERTY_VOCABULARIES,
    LabelledRow,
    PropertyModel,
    build_labelled_rows,
    lofo_cv,
    predict,
    train,
)
from .similarity import Embedding, EmbeddingRow, kl_trace, tsne_embed
from .walks import WalkSpec, WalkTrace, default_step, diagonal_walk, walk_bundle

__all__ = [
    "BoxDomain",
    "Embedding",
    "EmbeddingRow",
    "FEATURE_NAMES",
    "FeatureVector",
    "LabelledRow",
    "PROPERTY_NAMES",
    "PROPERTY_VOCABULARIES",
    "ProblemId",
    "ProblemInstance",
    "PropertyModel",
    "SampleSet",
    "SimulationResult",
    "TileGrid",
    "WalkSpec",
    "WalkTrace",
    "__version__",
    "air_time",
    "basic_fitness",
    "build_labelled_rows",
    "compute_features",
    "concatenate",
    "decode_instance_level",
    "decode_levels",
    "decoder_params",
    "default_step",
    "diagonal_walk",
    "errors",
    "evaluate",
    "evaluate_batch",
    "instance_agent",
    "kl_trace",
    "lhs_sample",
    "list_problems",
    "lofo_cv",
    "normalize_features",
    "parse_ascii",
    "predict",
    "render_ascii",
    "resolve",
    "simulate",
    "time_taken",
    "train",
    "tsne_embed",
    "walk_bundle",
]
