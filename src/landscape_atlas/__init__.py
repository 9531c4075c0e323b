"""Fitness-landscape analysis of level-generation and baseline problems.

The package covers the full pipeline: a registry of 28 level-generation
problems (latent vector -> tile grid -> fitness) plus seeded analytic
baselines, diagonal walks, Latin hypercube sampling, a 31-feature
landscape battery, random-forest property prediction, and an exact t-SNE
similarity map.  Everything is seed-deterministic.

Each public name has one home: the walk and map names below, or the
``__all__`` of ``ela``, ``mario``, ``problems`` or ``properties``.
"""

__version__ = "0.1.0"

# The subpackages that home the other public names, bound here so that
# ``import landscape_atlas`` reaches them as attributes.
from . import ela, errors, mario, problems, properties
from .similarity import Embedding, EmbeddingRow, kl_trace, tsne_embed
from .walks import WalkSpec, WalkTrace, default_step, diagonal_walk, walk_bundle

__all__ = [
    "Embedding",
    "EmbeddingRow",
    "WalkSpec",
    "WalkTrace",
    "__version__",
    "default_step",
    "diagonal_walk",
    "errors",
    "kl_trace",
    "tsne_embed",
    "walk_bundle",
]
