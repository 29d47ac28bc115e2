"""Exact-solver tests.

The headline numbers (opening winner, reachable-state counts, the uniform
random-play win probability) were produced once by this solver, cross-checked
by Monte Carlo and by an independent reimplementation during development, and
are frozen here as regression anchors.
"""

import gc
import hashlib
import random
import tracemalloc
from fractions import Fraction
from itertools import pairwise

import pytest

import flux.engine
import flux.solver
from flux.engine import (
    MAX_PLIES,
    GameState,
    Role,
    apply,
    encode_action,
    initial_state,
    legal_actions,
    role_to_move,
    state_from_key,
    state_key,
    status_of,
)
from flux.errors import StateError
from flux.solver import (
    OptimalAgent,
    _layers,
    export_solved,
    optimal_policy,
    random_win_prob,
    random_win_table,
    reachable_states,
    solve,
)

RANDOM_PLAY_SHRINKER_WIN = 0.29231361218346746
SOLVED_TXT_SHA256 = "c0f2cea6b3ecc7969be53ce7ee2e4a94ba4bcbcd80dca66ed4baed857ed9cc78"
# SHA-256 of "key\tcode\n" for the optimal move at every live state, in key order
OPTIMAL_MOVES_SHA256 = "209378b7118b05b4dcb4539de1ed35e40faf90983e088dbf313ab8f4d96d2d52"
# SHA-256 of "key\n" per live state, then "key\tlabel\n" per terminal state, in
# the order reachable_states lists them (benchmarks pick live states by index)
REACHABLE_ORDER_SHA256 = "241cd3ed118244431a513ed510ad81c14454650d3bbbdba14b643e6646589400"


def test_reachable_state_counts(solved):
    reach = reachable_states(initial_state())
    shrinker_turn = [s for s in reach.ongoing if s.moves_played % 2 == 0]
    amplifier_turn = [s for s in reach.ongoing if s.moves_played % 2 == 1]
    assert len(shrinker_turn) == 4426
    assert len(amplifier_turn) == 3984
    # the solved value table covers exactly the live positions plus terminals
    assert len(solved.value) == len(reach.ongoing) + len(reach.terminal)


def test_reachable_order_is_frozen():
    reach = reachable_states()
    digest = hashlib.sha256()
    for state in reach.ongoing:
        digest.update(f"{state_key(state)}\n".encode())
    for state, status in reach.terminal:
        digest.update(f"{state_key(state)}\t{status.label}\n".encode())
    assert digest.hexdigest() == REACHABLE_ORDER_SHA256


def test_every_graph_edge_matches_the_checked_apply():
    # the graph moves through the engine's unchecked step, once per live row;
    # every edge of every live state must be what the public, checked apply
    # gives for that action, at that state's own move count
    states = edges = 0
    rows, kids, layers = _layers(initial_state())
    for moves, ((ids, statuses), (below, below_statuses)) in enumerate(pairwise([*layers, ([], [])])):
        assert len(set(ids)) == len(ids)  # a layer holds each row once
        status_below = dict(zip(below, below_statuses))
        for i, status in zip(ids, statuses):
            state = GameState(rows[i], moves)
            assert status is status_of(state)
            if status.is_terminal:
                continue
            states += 1
            actions = legal_actions(state)
            assert len(kids[i]) == len(actions)
            for c, action in zip(kids[i], actions):
                child, child_status = apply(state, action)
                assert rows[c] == child.cells
                assert status_below[c] is child_status  # the child sits in the next layer
                edges += 1
    assert (states, edges) == (8410, 74108)


def test_graph_steps_each_live_row_once(monkeypatch):
    # the children of a state depend only on its row, so a row live at many
    # move counts is stepped once: 15,048 steps for the 1,711 distinct live
    # rows, not one per edge of each of the 8,410 live states (74,108)
    calls = 0

    def counting_step(cells, index, op):
        nonlocal calls
        calls += 1
        return flux.engine._step(cells, index, op)

    monkeypatch.setattr(flux.solver, "_step", counting_step)
    reachable_states()
    assert calls == 15048


def test_graph_classifies_each_row_once_below_the_ply_limit(monkeypatch):
    # below the ply limit a state's status is its row's, so status_of runs once
    # per distinct row (3,333) and once per state only at the limit (1,685),
    # not once per state (16,613) or per edge; the engine's name is counted
    # too, so a build through the public apply shows
    calls = 0

    def counting_status_of(state):
        nonlocal calls
        calls += 1
        return status_of(state)

    monkeypatch.setattr(flux.solver, "status_of", counting_status_of)
    monkeypatch.setattr(flux.engine, "status_of", counting_status_of)
    reach = reachable_states()
    assert len(reach.ongoing) + len(reach.terminal) == 16613
    assert sum(s.moves_played == MAX_PLIES for s, _ in reach.terminal) == 1685
    assert calls == 3333 + 1685


def test_solve_agrees_with_a_plain_minimax(solved):
    # an independent oracle: a memoised minimax through the public engine only,
    # whose mover wins as fast as it can or else loses as slowly as it can
    memo = {}

    def minimax(state, status):
        if state not in memo:
            if status.is_terminal:
                memo[state] = (status.winner, 0)
            else:
                mover = role_to_move(state)
                outcomes = [minimax(*apply(state, a)) for a in legal_actions(state)]
                wins = [d for w, d in outcomes if w is mover]
                if wins:
                    memo[state] = (mover, 1 + min(wins))
                else:
                    memo[state] = (mover.opponent, 1 + max(d for _, d in outcomes))
        return memo[state]

    root = initial_state()
    minimax(root, status_of(root))
    assert len(memo) == len(solved.value) == 16613
    for state, (winner, plies) in memo.items():
        key = state_key(state)
        assert (solved.value[key], solved.depth[key]) == (winner, plies), key
    movers = [role_to_move(s) for s in memo if not status_of(s).is_terminal]
    assert (movers.count(Role.SHRINKER), movers.count(Role.AMPLIFIER)) == (4426, 3984)
    assert (solved.reachable_shrinker, solved.reachable_amplifier) == (4426, 3984)


def test_opening_is_an_amplifier_win_in_fifteen(solved):
    key = state_key(initial_state())
    assert solved.value[key] is Role.AMPLIFIER
    assert solved.depth[key] == 15


def test_every_reachable_position_is_solved(solved):
    reach = reachable_states(initial_state())
    for state in reach.ongoing:
        key = state_key(state)
        assert solved.value[key] in (Role.SHRINKER, Role.AMPLIFIER)
        assert 1 <= solved.depth[key] <= 15 - state.moves_played


def test_terminal_positions_have_depth_zero(solved):
    reach = reachable_states(initial_state())
    for state, status in reach.terminal:
        key = state_key(state)
        assert solved.depth[key] == 0
        assert solved.value[key] is status.winner
        assert status_of(state).winner is status.winner


def test_solving_twice_gives_identical_answers():
    a = solve(initial_state())
    b = solve(initial_state())
    assert a.value == b.value
    assert a.depth == b.depth


def test_tables_are_freed_without_the_cycle_collector():
    # a table dropped by the caller must go at once, not wait for a gc pass
    gc.collect()
    gc.disable()
    try:
        solve()
        random_win_table()
        random_win_table(exact=True)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_solve_peak_memory_stays_near_its_result():
    # the graph behind solve may cost at most as much again as the tables it
    # returns; keeping a GameState per node would cost more
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = solve()
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()  # empties the free lists, which hold no part of the result
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(result.value) == 16613
    assert peak - base <= 2 * (current - base)


def test_sub_games_agree_with_the_full_game(solved):
    full_exact = random_win_table(exact=True)
    # seeded live roots of both movers, plus one a single move before the end
    live = reachable_states().ongoing
    roots = random.Random(23).sample(live, 19)
    roots.append(next(s for s in live if s.moves_played == 14))
    assert {role_to_move(r) for r in roots} == {Role.SHRINKER, Role.AMPLIFIER}
    for root in roots:
        sub = solve(root)
        reach = reachable_states(root)
        keys = {state_key(s) for s in reach.ongoing} | {state_key(s) for s, _ in reach.terminal}
        assert set(sub.value) == set(sub.depth) == keys
        assert all(sub.value[k] is solved.value[k] for k in keys)
        assert all(sub.depth[k] == solved.depth[k] for k in keys)
        by_mover = [role_to_move(s) for s in reach.ongoing]
        assert sub.reachable_shrinker == by_mover.count(Role.SHRINKER)
        assert sub.reachable_amplifier == by_mover.count(Role.AMPLIFIER)
        table = random_win_table(root, exact=True)
        assert set(table) == keys
        assert all(table[k] == full_exact[k] for k in keys)


def test_solving_a_finished_game_raises():
    with pytest.raises(StateError):
        solve(GameState((5,), 4))
    with pytest.raises(StateError):
        solve(GameState((1, 2, 3), 15))


def test_winner_always_has_a_winning_reply(solved):
    # spot-check the defining property of the value function on a sample
    rng = random.Random(17)
    reach = reachable_states(initial_state())
    for _ in range(500):
        state = reach.ongoing[rng.randrange(len(reach.ongoing))]
        mover = role_to_move(state)
        winner = solved.value[state_key(state)]
        child_winners = []
        for action in legal_actions(state):
            nxt, status = apply(state, action)
            if status.is_terminal:
                child_winners.append(status.winner)
            else:
                child_winners.append(solved.value[state_key(nxt)])
        if winner is mover:
            assert mover in child_winners
        else:
            assert all(w is not mover for w in child_winners)


def test_immediate_kill_is_found():
    # Amplifier to move: doubling 12 puts the sum at 27 and ends it
    root = GameState((12, 1, 2), 5)
    solved_local = solve(root)
    key = state_key(root)
    assert solved_local.value[key] is Role.AMPLIFIER
    assert solved_local.depth[key] == 1
    action = optimal_policy(solved_local, root)
    assert action.text == "AMPLIFY 0"


def test_optimal_policy_raises_off_the_map(solved):
    with pytest.raises(StateError):
        optimal_policy(solved, GameState((19, 19), 3))  # never reachable
    with pytest.raises(StateError):
        optimal_policy(solved, GameState((5,), 4))  # game already over


def test_optimal_self_play_lasts_exactly_the_solved_depth(solved):
    # winner shortens, loser stretches: bilateral best play hits depth exactly
    state = initial_state()
    status = status_of(state)
    plies = 0
    while not status.is_terminal:
        state, status = apply(state, optimal_policy(solved, state))
        plies += 1
    assert plies == 15
    assert status.winner is Role.AMPLIFIER


def test_optimal_moves_are_frozen(solved):
    # every tie-break and depth preference, over the whole live game
    live = sorted(reachable_states().ongoing, key=state_key)
    assert len(live) == 8410
    digest = hashlib.sha256()
    for state in live:
        code = encode_action(optimal_policy(solved, state))
        digest.update(f"{state_key(state)}\t{code}\n".encode())
    assert digest.hexdigest() == OPTIMAL_MOVES_SHA256


def test_optimal_agent_wraps_the_policy(solved):
    agent = OptimalAgent(solved)
    action = agent.choose(initial_state(), Role.SHRINKER, random.Random(0))
    assert action == optimal_policy(solved, initial_state())


class TestRandomPlay:
    def test_float_probability(self):
        assert random_win_prob(initial_state()) == RANDOM_PLAY_SHRINKER_WIN

    def test_exact_probability_agrees(self):
        table = random_win_table(initial_state(), exact=True)
        frac = table[state_key(initial_state())]
        assert isinstance(frac, Fraction)
        assert frac == Fraction(
            156377851717220664978677083, 534966026895360000000000000
        )
        assert abs(float(frac) - RANDOM_PLAY_SHRINKER_WIN) < 1e-12

    def test_terminal_probabilities_are_zero_or_one(self):
        win = GameState((4,), 6)
        lose = GameState((12, 5, 6), 7)
        assert random_win_prob(win) == 1.0
        assert random_win_prob(lose) == 0.0


def test_export_contains_every_state(tmp_path, solved):
    path = tmp_path / "solved.txt"
    export_solved(solved, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "#kind=solved"
    assert lines[1] == "#root=2,1,3,1,2|0"
    assert len(lines) == 2 + len(solved.value)
    # each body line is "key\twinner,depth"
    key, _, rest = lines[2].partition("\t")
    winner, _, depth = rest.partition(",")
    state_from_key(key)
    assert winner in ("shrinker", "amplifier")
    int(depth)


def test_export_bytes_are_frozen(tmp_path):
    # every winner and depth, in file order; any change to the solver or the
    # export format shows here
    path = tmp_path / "solved.txt"
    export_solved(solve(), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SOLVED_TXT_SHA256
