"""The features file, which ``features`` writes for one problem instance
and ``train``, ``cv``, ``classify`` and ``embed`` read back: its fields,
its writer and its one checked reader."""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .. import _fields
from ..errors import LandscapeError, UnknownProblem
from ..problems.core import ProblemId, ProblemInstance
from .features import FEATURE_NAMES, FeatureVector, compute_features
from .sampling import lhs_sample


def _registry_id(value) -> bool:
    try:
        return type(value) is str and ProblemId.parse(value).text == value
    except UnknownProblem:
        return False


#: The fields of a features file, in the order it writes them.
_FIELDS = {
    "problem": (_registry_id, "not spelled as a registry id"),
    "instance": _fields.INT, "n": _fields.INT, "d": _fields.INT,
    "sample_seed": _fields.INT, "feature_seed": _fields.INT,
    "features": {name: _fields.REAL for name in FEATURE_NAMES},
    "degenerate": [(lambda v: v in FEATURE_NAMES, "not a feature name")],
}


@dataclass(frozen=True)
class FeatureFile:
    """A checked features file: its path, vector, problem and instance, and
    the set-up (d, n, sample and feature seed) it was computed at."""
    path: str
    vector: FeatureVector
    problem: ProblemId
    instance: int
    d: int
    n: int
    sample_seed: int
    feature_seed: int


def feature_documents(instances: list[ProblemInstance], n: int,
                      sample_seed: int, feature_seed: int) -> list[dict]:
    """The fields of each instance's features file: the vector of its
    n-point LHS sample at sample_seed, computed at feature_seed."""
    docs = []
    for inst in instances:
        fv = compute_features(lhs_sample(inst, n, sample_seed), feature_seed)
        docs.append(dict(zip(_FIELDS, (
            inst.id.text, inst.instance_seed, n, inst.dimension, sample_seed,
            feature_seed, fv.values, list(fv.degenerate)))))
    return docs


def read_features(path: str) -> FeatureFile:
    """The features file at path: a LandscapeError naming it unless
    ``features`` wrote it, a ValueError naming it and the field unless each
    field of ``_FIELDS`` is there and well formed, and its d and n are its
    own ``basic.dim`` and ``basic.n_obs``."""
    doc = _fields.load(Path(path).read_bytes(), path, {})
    if doc.get("command") != "features":
        raise LandscapeError(f"{path} is not a features file (its command "
                             f"is {doc.get('command')!r})")
    _fields.check(path, doc, _FIELDS)
    for field, name in (("d", "basic.dim"), ("n", "basic.n_obs")):
        if doc[field] != doc["features"][name]:
            raise _fields.malformed(path, field, doc[field], f"not the file's "
                                    f"{name}, {doc['features'][name]!r}")
    values = {name: float(doc["features"][name]) for name in FEATURE_NAMES}
    return FeatureFile(path, FeatureVector(values, tuple(doc["degenerate"])),
                       ProblemId.parse(doc["problem"]), doc["instance"],
                       doc["d"], doc["n"], doc["sample_seed"], doc["feature_seed"])


def read_features_dir(directory: str) -> list[FeatureFile]:
    """The features files of directory, by file name: every .json file but
    the .meta.json sidecars that ``embed`` writes beside its map.  No two
    files may hold one (problem, instance) pair."""
    names = sorted(n for n in os.listdir(directory)
                   if n.endswith(".json") and not n.endswith(".meta.json"))
    if not names:
        raise LandscapeError(f"no .json feature files in {directory}")
    files, path_of = [], {}
    for path in (os.path.join(directory, n) for n in names):
        f = read_features(path)
        first = path_of.setdefault((f.problem, f.instance), path)
        if first != path:
            raise LandscapeError(f"{first} and {path} both hold "
                                 f"{f.problem.text} instance {f.instance}")
        files.append(f)
    return files
