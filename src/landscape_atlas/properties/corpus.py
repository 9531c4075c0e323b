"""Labelled training corpus: baseline-suite instances with shipped
per-function property labels."""
from __future__ import annotations

import csv
from importlib import resources

from ..ela.features import compute_features
from ..ela.sampling import lhs_sample
from ..problems.core import resolve
from .models import PROPERTY_NAMES, LabelledRow

#: Instance seeds used for the labelled corpus (5 per function).
CORPUS_INSTANCE_SEEDS: tuple[int, ...] = (1, 2, 3, 4, 5)


def load_labels() -> dict[str, dict[str, str]]:
    """function name -> property name -> label, from the shipped table;
    a fresh table on each call, so a caller may change its copy."""
    text = (resources.files("landscape_atlas.properties") / "labels.csv") \
        .read_text(encoding="utf-8")
    table: dict[str, dict[str, str]] = {}
    for rec in csv.DictReader(text.splitlines()):
        table[rec["function"]] = {p: rec[p] for p in PROPERTY_NAMES}
    return table


def build_labelled_rows(property_name: str, dimension: int = 10,
                        n: int | None = None, sample_seed: int = 1,
                        feature_seed: int = 0) -> list[LabelledRow]:
    """One labelled feature row per (function, instance seed); the group
    tag is the function name so grouped CV can hold functions out."""
    labels = load_labels()
    if n is None:
        n = 50 * dimension
    rows = []
    for fn in labels:
        for seed in CORPUS_INSTANCE_SEEDS:
            inst = resolve(fn, instance_seed=seed, dimension=dimension)
            fv = compute_features(lhs_sample(inst, n, sample_seed),
                                  feature_seed=feature_seed)
            rows.append(LabelledRow(features=fv,
                                    label=labels[fn][property_name],
                                    group=fn))
    return rows
