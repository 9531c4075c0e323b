"""Problem registry, box domains, and deterministic evaluation dispatch.

Problems are addressed by textual ids: ``m1``..``m28`` for the level
generation problems, ``sphere``/``ellipsoid``/... for the analytic baselines
and ``shekel-<peaks>`` for the foxhole family.  Instances are plain data and
picklable; every evaluation rebuilds its (cached) machinery from the instance
description, so results never depend on which process runs them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import (
    OutOfBounds, UnknownProblem, UnsupportedDimension, UnsupportedSeed,
)
from ..mario import metrics
from ..mario.decoder import (
    OVERWORLD, UNDERGROUND, decode_levels, decoder_params,
)
from ..mario.sim import (
    _CACHE, ASTAR, SCARED, SimulationResult, air_time, basic_fitness,
    simulate, time_taken,
)
from ..mario.tiles import TileGrid, concatenate
from .baselines import (
    BASELINE_NAMES, SHEKEL_PEAK_COUNTS, baseline_box, baseline_eval,
)

MARIO_SEEDS = 7


@dataclass(frozen=True)
class BoxDomain:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.ndim != 1 or lower.shape != upper.shape or lower.size == 0:
            raise ValueError("bounds must be equal-length 1-D arrays")
        if np.any(lower >= upper):
            raise ValueError("need lower[i] < upper[i]")
        lower.flags.writeable = False
        upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dimension(self) -> int:
        return self.lower.size

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        return x.shape == self.lower.shape and bool(
            np.all(x >= self.lower) and np.all(x <= self.upper))

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)


@dataclass(frozen=True)
class ProblemId:
    suite: str  # "mario" | "baseline"
    index: int

    def __post_init__(self):
        if self.suite not in ("mario", "baseline"):
            raise UnknownProblem(f"unknown suite {self.suite!r}")
        if self.suite == "mario" and not 1 <= self.index <= 28:
            raise UnknownProblem(f"mario problems are m1..m28, got m{self.index}")
        if self.suite == "baseline" and not 1 <= self.index <= len(_BASELINE_ORDER):
            raise UnknownProblem(f"baseline indices are "
                                 f"1..{len(_BASELINE_ORDER)}, got {self.index}")

    @property
    def text(self) -> str:
        if self.suite == "mario":
            return f"m{self.index}"
        return _BASELINE_ORDER[self.index - 1]

    @classmethod
    def parse(cls, text: str) -> "ProblemId":
        text = text.strip()
        if text.startswith("m") and text[1:].isascii() and text[1:].isdigit():
            return cls("mario", int(text[1:]))
        if text in _BASELINE_INDEX:
            return cls("baseline", _BASELINE_INDEX[text])
        raise UnknownProblem(f"no problem named {text!r}")


_BASELINE_ORDER = tuple(BASELINE_NAMES) + tuple(
    f"shekel-{p}" for p in SHEKEL_PEAK_COUNTS)
_BASELINE_INDEX = {name: i + 1 for i, name in enumerate(_BASELINE_ORDER)}

# Table rows m1..m28: (measure, agent or None, variant, concatenated?).
_MEASURES = ("enemyDistribution", "positionDistribution",
             "decorationFrequency", "negativeSpace", "leniency")
_MARIO_ROWS: dict[int, tuple[str, str | None, str, bool]] = {}
for _i, _m in enumerate(_MEASURES):
    _MARIO_ROWS[2 * _i + 1] = (_m, None, OVERWORLD, False)
    _MARIO_ROWS[2 * _i + 2] = (_m, None, UNDERGROUND, False)
for _j, _m in enumerate(("basicFitness", "airTime", "timeTaken")):
    _base = 11 + 6 * _j
    _MARIO_ROWS[_base] = (_m, ASTAR, OVERWORLD, False)
    _MARIO_ROWS[_base + 1] = (_m, ASTAR, UNDERGROUND, False)
    _MARIO_ROWS[_base + 2] = (_m, ASTAR, OVERWORLD, True)
    _MARIO_ROWS[_base + 3] = (_m, ASTAR, UNDERGROUND, True)
    _MARIO_ROWS[_base + 4] = (_m, SCARED, OVERWORLD, False)
    _MARIO_ROWS[_base + 5] = (_m, SCARED, UNDERGROUND, False)

_GRID_MEASURES = {
    "enemyDistribution": metrics.enemy_distribution,
    "positionDistribution": metrics.position_distribution,
    "decorationFrequency": metrics.decoration_frequency,
    "negativeSpace": metrics.negative_space,
    "leniency": lambda grid: metrics.leniency(grid).value,
}
_SIM_MEASURES = {
    "basicFitness": basic_fitness,
    "airTime": air_time,
    "timeTaken": time_taken,
}


@dataclass(frozen=True)
class ProblemInstance:
    id: ProblemId
    instance_seed: int
    dimension: int

    @property
    def domain(self) -> BoxDomain:
        if self.id.suite == "mario":
            return BoxDomain(np.full(self.dimension, -1.0),
                             np.full(self.dimension, 1.0))
        lo, hi = baseline_box(self.id.text)
        return BoxDomain(np.full(self.dimension, lo),
                         np.full(self.dimension, hi))

    @property
    def description(self) -> str:
        if self.id.suite == "mario":
            measure, agent, variant, concat = _MARIO_ROWS[self.id.index]
            parts = [measure, variant + ("+concat" if concat else "")]
            if agent:
                parts.insert(1, agent)
            return ", ".join(parts)
        if self.id.text.startswith("shekel-"):
            return f"shekel foxholes, {self.id.text.split('-')[1]} peaks"
        return f"{self.id.text} with seeded optimum shift"


def resolve(id_or_text: ProblemId | str, instance_seed: int,
            dimension: int) -> ProblemInstance:
    pid = ProblemId.parse(id_or_text) if isinstance(id_or_text, str) else id_or_text
    instance_seed = int(instance_seed)
    dimension = int(dimension)
    if pid.suite == "mario":
        if not 1 <= instance_seed <= MARIO_SEEDS:
            raise UnsupportedSeed(
                f"mario instance seeds are 1..{MARIO_SEEDS}, got {instance_seed}")
        if dimension < 2:
            raise UnsupportedDimension("mario problems need d >= 2")
        if _MARIO_ROWS[pid.index][3] and dimension % 2:
            raise UnsupportedDimension(
                "concatenation variants split the latent vector into two "
                "equal blocks and need an even d")
    else:
        if instance_seed < 1:
            raise UnsupportedSeed("baseline instance seeds start at 1")
        if dimension < 1:
            raise UnsupportedDimension("baselines need d >= 1")
    return ProblemInstance(pid, instance_seed, dimension)


def decode_instance_level(instance: ProblemInstance, z: np.ndarray) -> TileGrid:
    """The grid an m-problem instance sees for latent vector z."""
    if instance.id.suite != "mario":
        raise UnknownProblem("only mario problems decode levels")
    X = _design(instance, np.asarray(z, dtype=float)[np.newaxis])
    return _design_levels(instance, X)[0]


def _design(instance: ProblemInstance, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != instance.dimension:
        raise OutOfBounds(
            f"design must have shape (n, {instance.dimension}), "
            f"got shape {X.shape}")
    return X


def _design_levels(instance: ProblemInstance, X: np.ndarray
                   ) -> tuple[TileGrid, ...]:
    """The grids an m-problem instance sees for the rows of X, a design
    that _design has checked, from one decode_levels call: a concatenation
    variant decodes the two halves of each row as adjacent rows and joins
    their grids."""
    _, _, variant, concat = _MARIO_ROWS[instance.id.index]
    d = instance.dimension // 2 if concat else instance.dimension
    params = decoder_params(variant, instance.instance_seed, d)
    grids = decode_levels(params, X.reshape(-1, d))
    if concat:
        return tuple(map(concatenate, zip(grids[::2], grids[1::2])))
    return tuple(grids)


def instance_agent(instance: ProblemInstance) -> str | None:
    if instance.id.suite != "mario":
        return None
    return _MARIO_ROWS[instance.id.index][1]


# Shared-design memo.  The 28 m-problems read only four decoders per
# (instance seed, dimension) and two agents, so the problems that evaluate
# one design share its decoded grids and agent runs.  sim._CACHE maps each
# _decoder_key to the record (design bytes, items) of the last design read
# under that decoder: items[None] is the tuple of its grids and
# items[agent] the tuple of that agent's runs, filled when a problem first
# needs them, both in design row order.  A different design under the same
# decoder replaces the record, so the memo holds at most one design per
# decoder in use.


def _decoder_key(instance: ProblemInstance) -> tuple[str, int, int, bool]:
    """(variant, instance seed, dimension, concatenated?): m-problem
    instances with equal keys decode every latent vector alike."""
    _, _, variant, concat = _MARIO_ROWS[instance.id.index]
    return variant, instance.instance_seed, instance.dimension, concat


def _design_groups(instances: list[ProblemInstance]
                   ) -> list[list[ProblemInstance]]:
    """The instances grouped so that m-problems sharing a decoder (and so,
    with one n and sample seed, a design) run in one worker and reuse its
    decoded grids and agent runs; every baseline is a group alone."""
    groups: dict[object, list[ProblemInstance]] = {}
    for i, inst in enumerate(instances):
        key = _decoder_key(inst) if inst.id.suite == "mario" else i
        groups.setdefault(key, []).append(inst)
    return list(groups.values())


def _design_items(instance: ProblemInstance, X: np.ndarray,
                  agent: str | None) -> tuple:
    """The memo's grids (agent None) or agent runs of design X under
    instance's decoder, decoded or run on first need."""
    key, design = _decoder_key(instance), X.tobytes()
    record = _CACHE.get(key)
    if record is None or record[0] != design:
        record = _CACHE[key] = (design, {None: _design_levels(instance, X)})
    items = record[1]
    if agent not in items:
        items[agent] = _runs(items[None], agent)
    return items[agent]


def _runs(grids: tuple[TileGrid, ...], agent: str
          ) -> tuple[SimulationResult, ...]:
    """One simulate call per distinct grid, scattered back to every row."""
    seen: dict[bytes, SimulationResult] = {}
    runs = []
    for grid in grids:
        cells = grid.cells.tobytes()
        result = seen.get(cells)
        if result is None:
            result = seen[cells] = simulate(grid, agent)
        runs.append(result)
    return tuple(runs)


def evaluate(instance: ProblemInstance, x: np.ndarray) -> float:
    """Deterministic objective value; minimisation sense.  A batch of one
    over evaluate_batch for every suite."""
    x = np.asarray(x, dtype=float)
    if x.shape != (instance.dimension,):
        raise OutOfBounds(
            f"point must have length {instance.dimension}, got shape {x.shape}")
    return float(evaluate_batch(instance, x[np.newaxis])[0])


def evaluate_batch(instance: ProblemInstance, X: np.ndarray) -> np.ndarray:
    """Objective values at the rows of an (n, d) design.  Baselines make one
    baseline_eval call per design; mario problems decode the design once per
    decoder and run each agent once per distinct decoded grid, shared
    through the memo by every problem that reads the same design."""
    X = _design(instance, X)
    if instance.id.suite == "baseline":
        return baseline_eval(instance.id.text, instance.instance_seed, X)
    measure, agent, _, _ = _MARIO_ROWS[instance.id.index]
    items = _design_items(instance, X, agent)  # decode_levels box-checks X
    score = (_SIM_MEASURES if agent else _GRID_MEASURES)[measure]
    return np.array([min(1.0, max(0.0, score(item))) for item in items],
                    dtype=float)


def list_problems() -> list[dict]:
    """Registry listing for the CLI."""
    rows = []
    for name in [f"m{i}" for i in range(1, 29)] + list(_BASELINE_ORDER):
        inst = resolve(name, 1, 10)
        box = inst.domain
        rows.append({
            "problem": name, "suite": inst.id.suite,
            "description": inst.description,
            "box": f"[{box.lower[0]:g},{box.upper[0]:g}]",
            "seeds": f"1..{MARIO_SEEDS}" if inst.id.suite == "mario" else "1..",
        })
    return rows
