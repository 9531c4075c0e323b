"""Grid platformer simulator with two deterministic agents.

Movement model.  The agent occupies one cell; row 0 is the top.  Tiles never
block movement — they only support the agent from below (standable tile in
the cell underneath), hurt it (hazards), or pay out (coins).  Each tick the
agent picks an action, then physics resolve:

* vertical: a jump started from support rises 2 rows per tick for 2 ticks
  (4 rows max, clipped at the top row); otherwise gravity pulls 1 row per
  tick unless the agent is supported and did not choose to drop; falling off
  the bottom ends the run;
* horizontal: the agent may move one column right (never left);
* contact: finishing the tick in a new cell that holds a hazard kills the
  scared agent and costs the astar agent a 10-tick penalty; coins are
  collected per distinct cell visited.

A full jump spans up to 6 columns back to the takeoff elevation.  The run
wins when the agent occupies the last column with total ticks <= t_max
(4 x width).  The spawn cell sits above the bottommost standable tile of
column 0 that has a non-standable cell above it; no such tile means no run.

The astar agent plans a cheapest-ticks path over (row, column, jump-phase)
states with the admissible remaining-columns heuristic, then replays it.  On
an unwinnable level it replays the cheapest path to the farthest column
reachable within the budget.  Its open list holds one level of states per
f = g + columns left, a bucket queue: the heuristic is consistent, so f
never falls and a level, once reached, only grows.  The scared agent never
plans: it runs right and jumps whenever a gap or a hazard shows up within
two columns of lookahead.  Both agents move by the one successor table of
_successors, and read one grid's tables as bytes, each translated from the
grid's tile-code bytes (_Level).
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush

from .tiles import (
    COIN, HAZARD_BYTES, STANDABLE_BYTES, TileGrid, open_columns,
)

ASTAR = "astar"
SCARED = "scared"
AGENT_KINDS = (ASTAR, SCARED)

HAZARD_PENALTY = 10

# bytes.translate tables of _Level, by tile code as tiles.STANDABLE_BYTES:
# 1 at a coin; and the ticks a planner move costs by the cell it enters,
# one plus the penalty for a hazard.
_COIN_BYTES = bytes(c == COIN for c in range(256))
_STEP_BYTES = bytes(1 + HAZARD_PENALTY * b for b in HAZARD_BYTES)


@dataclass(frozen=True, slots=True)
class SimulationResult:
    d_level: int
    t_level: int
    n_coins: int
    t_g: int
    t_tot: int
    t_max: int
    won: bool

    def __post_init__(self):
        if not (0 <= self.t_g <= self.t_tot <= self.t_max):
            raise ValueError("need 0 <= t_g <= t_tot <= t_max")
        if self.d_level < 0:
            raise ValueError("d_level must be >= 0")
        if self.won and self.t_tot < 1:
            raise ValueError("a won run consumes at least one tick")


def basic_fitness(r: SimulationResult) -> float:
    v = (r.d_level - r.t_level + r.n_coins + (5000 if r.won else 0)) / 5000.0
    return min(1.0, max(0.0, (v + 0.04) / 1.26))


def air_time(r: SimulationResult) -> float:
    return r.t_g / r.t_tot if r.won else 1.0


def time_taken(r: SimulationResult) -> float:
    return 1.0 - r.t_tot / r.t_max if r.won else 1.0


class _Level:
    """The lookup tables that a run reads, for one grid, flattened to
    bytes: one 0/1 (or, for step, tick-count) byte per cell, column or
    state, each translated from the grid's tile-code bytes.  step has one
    entry more, for a move that stays in its cell; a cell's footing (a
    standable tile below it) is ``stand[cell * 3]``."""

    __slots__ = ("height", "width", "t_max", "hazard", "coin", "col_open",
                 "step", "stand", "spawn")

    def __init__(self, grid: TileGrid):
        h, w = grid.cells.shape
        cells = grid.cells.tobytes()
        self.height = h
        self.width = w
        self.t_max = 4 * w
        std = cells.translate(STANDABLE_BYTES)
        self.hazard = cells.translate(HAZARD_BYTES)
        self.coin = cells.translate(_COIN_BYTES)
        self.col_open = open_columns(std, w)
        self.step = cells.translate(_STEP_BYTES) + b"\1"
        # Per state (cell * 3 + jump phase): 1 where the agent stands, in
        # jump phase 0 above a standable tile.
        stand = bytearray(3 * h * w)
        stand[:3 * (h - 1) * w:3] = std[w:]
        self.stand = bytes(stand)
        # Above the bottommost standable tile of column 0 that has a
        # non-standable cell above it.
        r = std[::w].rfind(b"\0\1")
        self.spawn = r * w if r >= 0 else -1


def _spawn_result(lv: _Level, agent: str) -> SimulationResult | None:
    """Handle runs decided at the spawn cell; None means the run proceeds."""
    if lv.spawn < 0:
        return SimulationResult(0, 0, 0, 0, 0, lv.t_max, False)
    hostile = lv.hazard[lv.spawn]
    if hostile and agent == SCARED:
        return SimulationResult(1, 0, 0, 0, 0, lv.t_max, False)
    if lv.width == 1:
        # Already in the last column; one settling tick, plus the hazard
        # penalty if the spawn cell itself is hostile (astar only here).
        t = 1 + (HAZARD_PENALTY if hostile else 0)
        if t > lv.t_max:
            return SimulationResult(1, 0, 0, 0, 0, lv.t_max, False)
        coins = 1 if lv.coin[lv.spawn] else 0
        return SimulationResult(1, t, coins, 1, t, lv.t_max, True)
    return None


def simulate(grid: TileGrid, agent: str,
             track: list | None = None) -> SimulationResult:
    """One run of agent through grid; track, if given, collects the visited
    (row, col) cells."""
    if agent not in AGENT_KINDS:
        raise ValueError(f"unknown agent kind {agent!r}")
    lv = _Level(grid)
    result = _spawn_result(lv, agent)
    if result is None:
        return _run_astar(lv, track) if agent == ASTAR \
            else _run_scared(lv, track)
    if track is not None and lv.spawn >= 0:
        track.append((lv.spawn // lv.width, 0))
    return result


# The shared-design memo of problems.core (see the comment above
# core._decoder_key).  It lives here, under this name, because the
# benchmark's per-pass reset empties sim._CACHE.
_CACHE: dict = {}


def _run_scared(lv: _Level, track: list | None = None) -> SimulationResult:
    """Run right, jumping when a gap or a hazard lies within two columns.

    Each tick takes a move of the planner's successor table that steps one
    column right, so a run that neither falls out nor meets a hazard reaches
    the last column after w - 1 ticks, inside the 4 x w budget."""
    h, w = lv.height, lv.width
    table = _successor_table(h, w)
    n_states = h * w * 3
    hazard, coin, col_open, stand = lv.hazard, lv.coin, lv.col_open, lv.stand
    cell = lv.spawn
    state = cell * 3
    coins = {cell} if coin[cell] else set()
    t_g = 0
    if track is not None:
        track.append(divmod(cell, w))
    for t_tot in range(1, w):
        i = state + n_states * stand[state]
        edges = table[i]
        if edges is None:
            edges = table[i] = _successors(h, w, state, i >= n_states)
        move = _STEP_RIGHT
        if i >= n_states:
            r, c = divmod(cell, w)
            end = min(c + 3, w)  # the lookahead: up to two columns ahead
            jump = 1 in col_open[c + 1:end]
            if not jump:
                for rr in range(max(0, r - 1), min(h, r + 2)):
                    if 1 in hazard[rr * w + c + 1:rr * w + end]:
                        jump = True
                        break
            if jump:
                move = _JUMP_RIGHT
        if not edges:
            break  # fell out of the level
        state = edges[move][0]
        cell = state // 3
        if track is not None:
            track.append(divmod(cell, w))
        if coin[cell]:
            coins.add(cell)
        if hazard[cell]:
            break  # contact with a hazard in a new cell: run over
        if stand[state]:
            t_g += 1
    else:  # in the last column
        return SimulationResult(w, w - 1, len(coins), t_g, w - 1, lv.t_max,
                                True)
    return SimulationResult(cell % w + 1, t_tot, len(coins), t_g, t_tot,
                            lv.t_max, False)


def _run_astar(lv: _Level, track: list | None = None) -> SimulationResult:
    w = lv.width
    start = lv.spawn * 3
    start_cost = HAZARD_PENALTY if lv.hazard[lv.spawn] else 0
    dist, parent, goal_state = _astar_search(lv, start, start_cost)
    if goal_state >= 0:
        return _replay(lv, dist, parent, goal_state, won=True, track=track)
    far_c, far_d, far_state = -1, lv.t_max + 1, -1
    for state, d in enumerate(dist):
        if d <= lv.t_max:
            c = (state // 3) % w
            if c > far_c or (c == far_c and d < far_d):
                far_c, far_d, far_state = c, d, state
    return _replay(lv, dist, parent, far_state, won=False, track=track)


# Successor-table entry of a state in the last column: the search stops
# there (a goal) instead of expanding it.  Not (), which a dead end holds.
_GOAL = object()


@lru_cache(maxsize=8)
def _successor_table(h: int, w: int) -> list:
    """The planner's successors on every h x w grid, filled in lazily.

    One list of 2*h*w*3 entries: entry ``s`` holds the successors of state
    s when the agent is not standing, and entry ``h*w*3 + s`` those of s when
    it is (only jump-phase-0 states stand), so a grid's stand table gives
    the entry of s as ``s + h*w*3 * stand[s]``; None until first needed.
    Each successor is a tuple ``(s2, k, left)``: the next state; the index
    into the grid's step table that prices the move (the new cell, or the
    last entry, one tick, when the move stays in its cell); and the columns
    left after the move, s2's heuristic (see _astar_search).  Successors
    come in the order the moves are tried: stay or fall, then jump, then
    drop, each without and then with a step right.  Only the step prices
    depend on the grid, so one table serves every grid of its shape, and
    the cache keeps it across runs: a search reads the entries that earlier
    searches filled and fills only the ones it reaches first."""
    return [None] * (2 * h * w * 3)


# Entries of a successor tuple that step one column right: walking on
# (_STEP_RIGHT) or jumping (_JUMP_RIGHT) when standing, rising or falling
# (_STEP_RIGHT) when airborne.  An airborne state that falls out of the level
# has no successors.
_STEP_RIGHT, _JUMP_RIGHT = 1, 3


def _successors(h: int, w: int, state: int, standing: bool):
    """Table entry of state (see _successor_table)."""
    cell, p = divmod(state, 3)
    r, c = divmod(cell, w)
    if c == w - 1:
        return _GOAL
    out = []
    moves = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)) if standing \
        else ((0, 0), (0, 1))
    for kind, dx in moves:  # kind: 0 stay/fall, 1 jump, 2 drop
        if kind == 1:
            rise = 2 if r >= 2 else r
            r2, p2 = r - rise, (1 if rise == 2 else 0)
        elif kind == 2 or not standing:
            if p > 0:
                rise = 2 if r >= 2 else r
                r2, p2 = r - rise, (p - 1 if rise == 2 else 0)
            else:
                r2, p2 = r + 1, 0
                if r2 >= h:
                    continue  # falls out: dead end
        else:
            r2, p2 = r, 0
        cell2 = r2 * w + c + dx
        s2 = cell2 * 3 + p2
        k = cell2 if cell2 != cell else h * w
        out.append((s2, k, w - 1 - c - dx))
    return tuple(out)


def _astar_search(lv: _Level, start: int, start_cost: int):
    """Cheapest ticks from start to every state the search settles.

    States are ``(row * width + col) * 3 + jump_phase``; a state's f is its
    g plus its columns left.  The open list holds one level per f (a
    bucket queue): the states of the current f form a heap, so they pop in
    state order, and a push at a higher f appends to that level's list,
    which is heapified when its f comes up.  The columns-left heuristic is
    consistent (a move costs at least one tick and gains at most one
    column), so no push lands below the current f, and states pop in
    (f, state) order, as from one heap of the keys ``f * n_states + state``.
    Nothing past the t_max budget is pushed, so the first goal settled is
    within budget; every within-budget state settles in the order, and
    with the parent, of an unbounded search."""
    h, w = lv.height, lv.width
    table = _successor_table(h, w)
    step, stand = lv.step, lv.stand
    n_states = h * w * 3
    dist = [lv.t_max + 1] * n_states
    parent = [-1] * n_states
    dist[start] = start_cost
    f = start_cost + w - 1
    heap = [start]
    later = defaultdict(list)  # f above the current one -> its states
    goal_state = -1
    while True:
        if not heap:
            if not later:
                break
            f = min(later)
            heap = later.pop(f)
            heapify(heap)
        # No closed set: the first pop settles a state at its final g, so a
        # stale entry re-expands from that g and relaxes nothing.
        state = heappop(heap)
        i = state + n_states * stand[state]
        edges = table[i]
        if edges is None:
            edges = table[i] = _successors(h, w, state, i >= n_states)
        if edges is _GOAL:
            goal_state = state
            break
        g = dist[state]
        for s2, k, left in edges:
            g2 = g + step[k]
            if g2 < dist[s2]:
                dist[s2] = g2
                parent[s2] = state
                if g2 + left == f:
                    heappush(heap, s2)
                else:
                    later[g2 + left].append(s2)
    return dist, parent, goal_state


def _replay(lv: _Level, dist, parent, state: int, won: bool,
            track: list | None = None) -> SimulationResult:
    w = lv.width
    if state < 0:  # budget excludes even the spawn (hazard spawn, tiny t_max)
        return SimulationResult(1, 0, 0, 0, 0, lv.t_max, False)
    coin, stand = lv.coin, lv.stand
    chain = []
    coins = set()
    t_g = 0
    s = state
    while s >= 0:
        chain.append(s)
        if coin[s // 3]:
            coins.add(s // 3)
        t_g += stand[s]
        s = parent[s]
    t_g -= stand[chain[-1]]  # standing at the start takes no tick
    if track is not None:
        track.extend(divmod(s // 3, w) for s in reversed(chain))
    t_tot = int(dist[state])
    # no move steps left, so the path ends in its farthest column (the
    # last one when won)
    return SimulationResult(state // 3 % w + 1, t_tot, len(coins), t_g, t_tot,
                            lv.t_max, won)
