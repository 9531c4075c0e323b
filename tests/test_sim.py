from heapq import heappop, heappush
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from landscape_atlas.ela.sampling import lhs_points
from landscape_atlas.mario import sim, tiles
from landscape_atlas.mario.sim import (
    ASTAR, HAZARD_PENALTY, SCARED, SimulationResult, air_time,
    basic_fitness, simulate, time_taken,
)
from landscape_atlas.mario.tiles import TileGrid, parse_ascii
from landscape_atlas.problems import core


def _floor_grid(width, height=4):
    m = np.full((height, width), tiles.AIR, dtype=np.int8)
    m[height - 1, :] = tiles.GROUND
    return m


def _result(**kw):
    base = dict(d_level=1, t_level=1, n_coins=0, t_g=1, t_tot=1,
                t_max=400, won=True)
    base.update(kw)
    return SimulationResult(**base)


# --- measure formulas (hand-computed substitutions) --------------------------

def test_basic_fitness_on_a_winning_run():
    # v = (100 - 50 + 3 + 5000)/5000 = 5053/5000
    r = _result(d_level=100, t_level=50, n_coins=3, t_g=40, t_tot=50)
    expected = (5053 / 5000 + 0.04) / 1.26
    assert basic_fitness(r) == pytest.approx(expected, abs=1e-12)
    assert basic_fitness(r) == pytest.approx(0.833810, abs=1e-6)


def test_basic_fitness_zero_progress_lost_run():
    # v = 0 gives (0 + 0.04)/1.26
    r = _result(d_level=10, t_level=10, n_coins=0, t_g=0, t_tot=10, won=False)
    assert basic_fitness(r) == pytest.approx(0.04 / 1.26, abs=1e-12)
    assert basic_fitness(r) == pytest.approx(0.031746, abs=1e-6)


def test_basic_fitness_clamps_at_zero_when_v_reaches_minus_004():
    # v = (0 - 200 + 0)/5000 = -0.04 exactly
    r = _result(d_level=0, t_level=200, n_coins=0, t_g=0, t_tot=200, won=False)
    assert basic_fitness(r) == 0.0


def test_air_time_fraction_of_supported_ticks():
    assert air_time(_result(t_g=30, t_tot=100, t_level=100)) == pytest.approx(0.3)


def test_air_time_is_one_when_lost():
    assert air_time(_result(t_g=3, t_tot=10, t_level=10, won=False)) == 1.0


def test_air_time_is_one_when_never_airborne():
    assert air_time(_result(t_g=25, t_tot=25, t_level=25)) == 1.0


def test_time_taken_zero_at_budget_and_half_at_half():
    assert time_taken(_result(t_tot=400, t_g=400, t_level=400)) == 0.0
    assert time_taken(_result(t_tot=200, t_g=200, t_level=200)) == 0.5


def test_time_taken_is_one_when_lost():
    assert time_taken(_result(t_tot=40, t_g=40, t_level=40, won=False)) == 1.0


def test_result_validation():
    with pytest.raises(ValueError):
        _result(t_g=5, t_tot=4)
    with pytest.raises(ValueError):
        _result(d_level=-1)
    with pytest.raises(ValueError):
        _result(t_tot=0, t_g=0, won=True)


# --- hand-traced runs ---------------------------------------------------------

def test_flat_floor_level_is_won_end_to_end():
    g = TileGrid(_floor_grid(5))
    for agent in (ASTAR, SCARED):
        r = simulate(g, agent)
        assert r.won
        assert r.d_level == 5
        assert r.t_tot == 4  # one rightward move per tick
    # the reactive agent has no reason to jump, so it is never airborne
    scared = simulate(g, SCARED)
    assert scared.t_g == scared.t_tot
    assert air_time(scared) == 1.0


def test_ten_column_gap_defeats_both_agents():
    # maximum jump span is 6 columns, so a 10-column hole is uncrossable
    m = _floor_grid(14)
    m[3, 2:12] = tiles.AIR
    g = TileGrid(m)
    for agent in (ASTAR, SCARED):
        r = simulate(g, agent)
        assert not r.won
        assert r.d_level < 14


def test_no_footing_in_first_column_means_no_run():
    m = _floor_grid(6)
    m[3, 0] = tiles.AIR
    for agent in (ASTAR, SCARED):
        r = simulate(TileGrid(m), agent)
        assert (r.won, r.d_level, r.t_tot) == (False, 0, 0)


def test_small_jumpable_gap_is_cleared():
    m = _floor_grid(10)
    m[3, 4:6] = tiles.AIR
    for agent in (ASTAR, SCARED):
        assert simulate(TileGrid(m), agent).won


def test_coins_on_the_path_are_collected():
    # 2-row corridor: every winning path visits every top-row cell
    m = _floor_grid(6, height=2)
    m[0, 1] = tiles.COIN
    m[0, 3] = tiles.COIN
    r = simulate(TileGrid(m), ASTAR)
    assert r.won
    assert r.n_coins == 2


def test_hazard_kills_scared_but_only_delays_astar():
    m = _floor_grid(8)
    m[2, :] = tiles.ENEMY  # hazard wall too wide to jump over cleanly
    g = TileGrid(m)
    assert not simulate(g, SCARED).won
    astar = simulate(g, ASTAR)
    assert astar.won
    flat = simulate(TileGrid(_floor_grid(8)), ASTAR)
    assert astar.t_tot > flat.t_tot  # penalties cost ticks


def test_unknown_agent_rejected():
    with pytest.raises(ValueError):
        simulate(TileGrid(_floor_grid(4)), "walker")


def test_simulation_is_deterministic():
    m = np.random.default_rng(0).integers(0, 13, size=(14, 28)).astype(np.int8)
    g = TileGrid(m)
    for agent in (ASTAR, SCARED):
        assert simulate(g, agent) == simulate(TileGrid(m.copy()), agent)


def test_measures_stay_in_unit_interval_on_random_grids():
    rng = np.random.default_rng(11)
    for _ in range(40):
        h = int(rng.integers(2, 15))
        w = int(rng.integers(1, 20))
        g = TileGrid(rng.integers(0, 13, size=(h, w)).astype(np.int8))
        for agent in (ASTAR, SCARED):
            r = simulate(g, agent)
            assert 0.0 <= basic_fitness(r) <= 1.0
            assert 0.0 <= air_time(r) <= 1.0
            assert 0.0 <= time_taken(r) <= 1.0


def test_adding_footing_never_hurts_astar_progress():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = rng.integers(0, 13, size=(5, 8)).astype(np.int8)
        base = simulate(TileGrid(m), ASTAR).d_level
        r = int(rng.integers(0, 5))
        c = int(rng.integers(0, 8))
        m2 = m.copy()
        m2[r, c] = tiles.GROUND
        assert simulate(TileGrid(m2), ASTAR).d_level >= base


def test_trace_matches_result_and_walks_rightward():
    m = _floor_grid(7)
    m[3, 3] = tiles.AIR
    g = TileGrid(m)
    for agent in (ASTAR, SCARED):
        path = []
        result = simulate(g, agent, path)
        assert result == simulate(g, agent)
        assert path[0][1] == 0  # spawn in the first column
        cols = [c for _, c in path]
        assert all(b - a in (0, 1) for a, b in zip(cols, cols[1:]))
        if result.won:
            assert max(cols) == g.width - 1


# --- the budget-bounded planner against the two-search reference -------------
#
# _edges, _reference_astar_search and _reference_run_astar below are the
# planner's _edges, _astar_search and _run_astar as they were before the
# successor table and the budget bound: each expansion derives its
# successors afresh, the search keeps states past the budget, and a run
# whose first goal is over budget searches again without early exit.
# Swapping the reference run into sim must leave every run and track
# unchanged.

_INF = float("inf")


def _edges(lv, r: int, c: int, p: int):
    """Successor (r, c, p, cost) tuples, in a fixed deterministic order."""
    w, h = lv.width, lv.height
    supported, hazard = lv.stand[::3], lv.hazard
    cell = r * w + c
    standing = p == 0 and supported[cell]
    out = []
    moves = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)) if standing \
        else ((0, 0), (0, 1))
    for kind, dx in moves:  # kind: 0 stay/fall, 1 jump, 2 drop
        if dx and c + 1 >= w:
            continue
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
        c2 = c + dx
        cost = 1
        if (r2 != r or c2 != c) and hazard[r2 * w + c2]:
            cost += HAZARD_PENALTY
        out.append((r2, c2, p2, cost))
    return out


def _reference_astar_search(lv, start: int, start_cost: int,
                            early_exit: bool, stale: list | None = None):
    """The reference search; stale, if given, collects the states of the
    heap entries that it pops after the state was settled."""
    w = lv.width
    n_states = lv.height * w * 3
    dist = [_INF] * n_states
    done = [False] * n_states
    parent = [-1] * n_states
    dist[start] = start_cost
    last_col = w - 1
    heap = [(start_cost + last_col, start)]
    goal_state = -1
    while heap:
        f, state = heappop(heap)
        if done[state]:
            if stale is not None:
                stale.append(state)
            continue
        done[state] = True
        cell, p = divmod(state, 3)
        r, c = divmod(cell, w)
        if c == last_col:
            if goal_state < 0:
                goal_state = state
                if early_exit:
                    break
            continue
        g = dist[state]
        for r2, c2, p2, cost in _edges(lv, r, c, p):
            s2 = (r2 * w + c2) * 3 + p2
            g2 = g + cost
            if g2 < dist[s2]:
                dist[s2] = g2
                parent[s2] = state
                heappush(heap, (g2 + last_col - c2, s2))
    return dist, parent, goal_state


def _reference_run_astar(lv, track=None):
    w = lv.width
    start = lv.spawn * 3
    start_cost = HAZARD_PENALTY if lv.hazard[lv.spawn] else 0
    goal = _reference_astar_search(lv, start, start_cost, early_exit=True)
    dist, parent, goal_state = goal
    if goal_state >= 0 and dist[goal_state] <= lv.t_max:
        return sim._replay(lv, dist, parent, goal_state, won=True, track=track)
    if goal_state >= 0:
        # Goal exists but over budget: need the full reachable set.
        dist, parent, _ = _reference_astar_search(lv, start, start_cost,
                                                  early_exit=False)
    best_c, best_d, best_state = -1, _INF, -1
    for state, d in enumerate(dist):
        if d <= lv.t_max:
            c = (state // 3) % w
            if c > best_c or (c == best_c and d < best_d):
                best_c, best_d, best_state = c, d, state
    return sim._replay(lv, dist, parent, best_state, won=False, track=track)


def _runs(grid: TileGrid, agent: str) -> tuple:
    """An untracked and a tracked run of agent on grid, and the track."""
    track = []
    return simulate(grid, agent), simulate(grid, agent, track), track


def _reference_runs(grid: TileGrid) -> tuple:
    with mock.patch.object(sim, "_run_astar", _reference_run_astar):
        return _runs(grid, ASTAR)


def _searches_per_run(grid: TileGrid) -> int:
    """_astar_search calls that one astar run makes."""
    search = sim._astar_search
    calls = []

    def counted(*args):
        calls.append(args)
        return search(*args)

    with mock.patch.object(sim, "_astar_search", counted):
        simulate(grid, ASTAR)
    return len(calls)


@st.composite
def _grids(draw):
    """Grids up to 16 x 60 over a drawn multiset of the 13 tile codes.  With
    enemies in place of air, most winnable levels cost more than the 4 x
    width budget, which sends the reference run through its second, full
    search."""
    h = draw(st.integers(1, 16))
    w = draw(st.integers(1, 60))
    codes = draw(st.lists(st.integers(0, tiles.N_TILE_TYPES - 1),
                          min_size=1, max_size=2 * tiles.N_TILE_TYPES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = np.array(codes, dtype=np.int8)[rng.integers(0, len(codes), (h, w))]
    if draw(st.booleans()):
        m[m == tiles.AIR] = tiles.ENEMY
    return TileGrid(m)


@settings(max_examples=300, deadline=None)
@given(grid=_grids())
def test_planner_matches_the_reference_search_on_random_grids(grid):
    assert _runs(grid, ASTAR) == _reference_runs(grid)


def test_over_budget_and_no_goal_levels_take_one_search_and_match_reference():
    # Enemies fill every cell above the floor, so each step costs the
    # hazard penalty and the goal lies far over the 4 x width budget.
    over_budget = np.full((4, 9), tiles.ENEMY, dtype=np.int8)
    over_budget[3, :] = tiles.GROUND
    # A floor gap wider than a full jump: no path reaches the last column.
    no_goal = _floor_grid(20)
    no_goal[3, 4:14] = tiles.AIR
    for m in (over_budget, no_goal):
        grid = TileGrid(m)
        assert _searches_per_run(grid) == 1
        runs = _runs(grid, ASTAR)
        assert not runs[0].won
        assert runs == _reference_runs(grid)


# Grids of air, ground and enemies on which the reference search pops an
# entry of a state it has already settled (two won, two lost).  The planner
# keeps no closed set: such an entry re-expands its state from the settled g
# and relaxes nothing, so every run and track still matches.
_STALE_ENTRY_GRIDS = (
    ("E-X--", "-EXEE", "EXXEX", "-XEEE", "XE--E", "XXEX-"),
    ("-XX--EE---", "--E--EXX-E", "X--EXXEE-E", "XEXEEEEEX-"),
    ("XXE-E-", "---XX-", "EXXE-E", "XXXX-E", "XX--EE"),
    ("XEE-EE-E", "E-X-E-EE", "EE-XE-X-", "X-XXXXEE"),
)


@pytest.mark.parametrize("rows", _STALE_ENTRY_GRIDS)
def test_planner_matches_the_reference_search_where_it_pops_stale_entries(
        rows):
    grid = parse_ascii("\n".join(rows))
    lv = sim._Level(grid)
    start_cost = HAZARD_PENALTY if lv.hazard[lv.spawn] else 0
    stale = []
    _reference_astar_search(lv, lv.spawn * 3, start_cost, early_exit=True,
                            stale=stale)
    assert stale
    assert _runs(grid, ASTAR) == _reference_runs(grid)


def test_planner_matches_the_reference_search_on_decoded_levels():
    grids = []
    for problem in ("m11", "m12", "m13", "m14"):
        inst = core.resolve(problem, 2, 10)
        box = inst.domain
        X = lhs_points(130, 10, box.lower, box.upper, 7)
        grids.extend(core._design_levels(inst, X))
    assert len(grids) >= 500
    assert {g.width for g in grids} == {28, 56}
    for grid in grids:
        assert _runs(grid, ASTAR) == _reference_runs(grid)


# --- the bucketed open list against the packed-key heap ----------------------
#
# _packed_successors and _packed_astar_search are _successors and
# _astar_search as they were when one heap ordered the open list by the
# packed key (g + columns left) * n_states + state, with that key at zero
# cost as the third entry of a successor tuple.  They keep a successor
# table of their own.  The bucketed search must pop the same states: every
# dist, parent and goal must match, state for state.

_PACKED_TABLES: dict = {}


def _packed_successor_table(h: int, w: int) -> list:
    table = _PACKED_TABLES.get((h, w))
    if table is None:
        table = _PACKED_TABLES[h, w] = [None] * (2 * h * w * 3)
    return table


def _packed_successors(h: int, w: int, state: int, standing: bool):
    """Table entry of state (see _successor_table)."""
    n_states = h * w * 3
    cell, p = divmod(state, 3)
    r, c = divmod(cell, w)
    if c == w - 1:
        return sim._GOAL
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
        out.append((s2, k, (w - 1 - c - dx) * n_states + s2))
    return tuple(out)


def _packed_astar_search(lv, start: int, start_cost: int):
    """Cheapest ticks from start to every state the search settles.

    States are ``(row * width + col) * 3 + jump_phase``.  The heap orders
    states by (g + columns left, state), packed into the one int
    ``(g + columns left) * n_states + state``.  Nothing past the t_max
    budget is pushed, so the first goal settled is within budget; the
    heuristic is consistent, so every within-budget state settles in the
    order, and with the parent, of an unbounded search."""
    h, w = lv.height, lv.width
    table = _packed_successor_table(h, w)
    step, stand = lv.step, lv.stand
    n_states = h * w * 3
    dist = [lv.t_max + 1] * n_states
    parent = [-1] * n_states
    dist[start] = start_cost
    heap = [(start_cost + w - 1) * n_states + start]
    goal_state = -1
    while heap:
        # No closed set: the first pop settles a state at its final g, so a
        # stale entry re-expands from that g and relaxes nothing.
        state = heappop(heap) % n_states
        i = state + n_states * stand[state]
        edges = table[i]
        if edges is None:
            edges = table[i] = _packed_successors(h, w, state, i >= n_states)
        if edges is sim._GOAL:
            goal_state = state
            break
        g = dist[state]
        for s2, k, key in edges:
            g2 = g + step[k]
            if g2 < dist[s2]:
                dist[s2] = g2
                parent[s2] = state
                heappush(heap, g2 * n_states + key)
    return dist, parent, goal_state


def _search_args(grid: TileGrid):
    """The level and the arguments of the one search of an astar run."""
    lv = sim._Level(grid)
    return lv, lv.spawn * 3, HAZARD_PENALTY if lv.hazard[lv.spawn] else 0


def _assert_same_search(grid: TileGrid) -> tuple:
    """Both searches on grid, which must agree; returns the bucketed one."""
    lv, start, start_cost = _search_args(grid)
    assert lv.spawn >= 0
    got = sim._astar_search(lv, start, start_cost)
    assert got == _packed_astar_search(lv, start, start_cost)
    return got


@settings(max_examples=300, deadline=None)
@given(grid=_grids())
def test_bucketed_search_matches_the_packed_heap_on_random_grids(grid):
    if sim._Level(grid).spawn >= 0:
        _assert_same_search(grid)


@pytest.mark.parametrize("rows", _STALE_ENTRY_GRIDS)
def test_bucketed_search_matches_the_packed_heap_where_it_pops_stale_entries(
        rows):
    _assert_same_search(parse_ascii("\n".join(rows)))


def test_bucketed_search_matches_the_packed_heap_on_decoded_levels():
    goals = 0
    for problem in ("m11", "m12", "m13", "m14"):
        inst = core.resolve(problem, 2, 10)
        box = inst.domain
        X = lhs_points(130, 10, box.lower, box.upper, 7)
        for grid in core._design_levels(inst, X):
            if sim._Level(grid).spawn >= 0:
                goals += _assert_same_search(grid)[2] >= 0
    assert goals >= 100


def _f_steps(lv, dist, parent) -> set:
    """f(s) - f(parent of s) over the settled states: the levels above the
    parent's f at which the last push of each state landed."""
    w = lv.width

    def f(s):
        return dist[s] + w - 1 - (s // 3) % w

    return {f(s) - f(p) for s, p in enumerate(parent) if p >= 0}


def test_bucketed_search_matches_the_packed_heap_with_pushes_ten_levels_up():
    # Enemies over half the cells: moves into them cost 1 + 10 ticks, so a
    # push lands at f + 10 (a step right) or f + 11 (a stay or a rise).
    rng = np.random.default_rng(3)
    m = np.where(rng.random((14, 28)) < 0.5, tiles.ENEMY, tiles.AIR
                 ).astype(np.int8)
    m[13, :] = tiles.GROUND
    m[12, 0] = tiles.AIR
    grid = TileGrid(m)
    lv = sim._Level(grid)
    dist, parent, goal = _assert_same_search(grid)
    assert {0, 1, 10, 11} <= _f_steps(lv, dist, parent)
    assert simulate(grid, ASTAR) == _reference_runs(grid)[0]


def test_bucketed_search_matches_the_packed_heap_without_a_goal():
    # A floor gap wider than a full jump: no path reaches the last column,
    # so both searches settle every state within budget.
    m = _floor_grid(20)
    m[3, 4:14] = tiles.AIR
    dist, parent, goal = _assert_same_search(TileGrid(m))
    assert goal == -1
    assert sum(d <= 80 for d in dist) > 1


# --- the scared agent against its own-physics reference ----------------------
#
# _reference_run_scared is _run_scared as it was before the agent stepped
# through the planner's successor table: it derives each jump, rise and fall
# itself.  Swapping it into sim must leave every run and track unchanged.

def _reference_run_scared(lv, track=None):
    w, h = lv.width, lv.height
    supported, hazard, coin, col_open = lv.stand[::3], lv.hazard, lv.coin, lv.col_open
    r, c, p = lv.spawn // w, 0, 0
    coins = {lv.spawn} if coin[lv.spawn] else set()
    t_tot = t_g = 0
    best_c = 0
    if track is not None:
        track.append((r, c))
    while True:
        cell = r * w + c
        standing = p == 0 and supported[cell]
        if standing:
            jump = False
            for cc in (c + 1, c + 2):
                if cc < w and col_open[cc]:
                    jump = True
                    break
            if not jump:
                for cc in (c + 1, c + 2):
                    if cc >= w:
                        break
                    for rr in range(max(0, r - 1), min(h, r + 2)):
                        if hazard[rr * w + cc]:
                            jump = True
                            break
                    if jump:
                        break
            if jump:
                rise = 2 if r >= 2 else r
                r -= rise
                p = 1 if rise == 2 else 0
        elif p > 0:
            rise = 2 if r >= 2 else r
            r -= rise
            p = p - 1 if rise == 2 else 0
        else:
            r += 1
            if r >= h:
                t_tot += 1
                break  # fell out of the level
        c += 1
        t_tot += 1
        cell = r * w + c
        if track is not None:
            track.append((r, c))
        if coin[cell]:
            coins.add(cell)
        if c > best_c:
            best_c = c
        if hazard[cell]:
            break  # contact with a hazard in a new cell: run over
        if p == 0 and supported[cell]:
            t_g += 1
        if c == w - 1:
            won = t_tot <= lv.t_max
            return SimulationResult(w if won else best_c + 1, t_tot,
                                    len(coins), t_g, t_tot, lv.t_max, won)
        if t_tot >= lv.t_max:
            break
    t_tot = min(t_tot, lv.t_max)
    return SimulationResult(best_c + 1, t_tot, len(coins), t_g, t_tot,
                            lv.t_max, False)


def _reference_scared_runs(grid: TileGrid) -> tuple:
    with mock.patch.object(sim, "_run_scared", _reference_run_scared):
        return _runs(grid, SCARED)


@settings(max_examples=300, deadline=None)
@given(grid=_grids())
def test_scared_agent_matches_the_reference_run_on_random_grids(grid):
    assert _runs(grid, SCARED) == _reference_scared_runs(grid)


def test_scared_agent_matches_the_reference_run_on_decoded_levels():
    grids = []
    for problem in ("m15", "m16"):
        inst = core.resolve(problem, 2, 10)
        box = inst.domain
        X = lhs_points(250, 10, box.lower, box.upper, 7)
        grids.extend(core._design_levels(inst, X))
    assert len(grids) >= 500
    runs = [_runs(grid, SCARED) for grid in grids]
    assert runs == [_reference_scared_runs(grid) for grid in grids]
    assert {r[0].won for r in runs} == {False, True}


# --- the byte tables against the list-based tables they replaced -----------
#
# _ReferenceLevel is _Level as it was when it built Python lists, with the
# step and stand tables derived from those lists.  Every table must hold the
# same values, entry for entry.

class _ReferenceLevel:
    def __init__(self, grid: TileGrid):
        cells = grid.cells
        h, w = cells.shape
        std = tiles.STANDABLE_MASK[cells]
        sup = np.zeros((h, w), dtype=bool)
        sup[:-1, :] = std[1:, :]
        self.supported = sup.ravel().tolist()
        self.hazard = tiles.HAZARD_MASK[cells].ravel().tolist()
        self.coin = (cells == tiles.COIN).ravel().tolist()
        self.col_open = (~std.any(axis=0)).tolist()
        # one entry per cell, then the one tick of a move that stays put
        self.step = [1 + HAZARD_PENALTY if hit else 1
                     for hit in self.hazard] + [1]
        self.stand = [s and p == 0 for s in self.supported for p in range(3)]
        self.spawn = -1
        for r in range(h - 1, 0, -1):
            if std[r, 0] and not std[r - 1, 0]:
                self.spawn = (r - 1) * w
                break


_TABLES = ("hazard", "coin", "col_open", "step", "stand")


@settings(max_examples=300, deadline=None)
@given(grid=_grids())
@example(grid=TileGrid(np.array([[tiles.ENEMY]])))
@example(grid=parse_ascii("E\n-\nX"))
@example(grid=parse_ascii("-XE-O"))
@example(grid=parse_ascii("-E\n-X\nXX"))
def test_level_byte_tables_equal_the_list_tables(grid):
    lv, ref = sim._Level(grid), _ReferenceLevel(grid)
    assert set(lv.__slots__) == {*_TABLES, "height", "width", "t_max", "spawn"}
    for name in _TABLES:
        assert isinstance(getattr(lv, name), bytes), name
        assert list(getattr(lv, name)) == [int(v) for v in getattr(ref, name)], name
    assert len(lv.step) == len(lv.hazard) + 1 == grid.cells.size + 1
    assert len(lv.stand) == 3 * grid.cells.size
    assert (lv.height, lv.width, lv.t_max, lv.spawn) == \
        (grid.height, grid.width, 4 * grid.width, ref.spawn)
