"""Exact-solver tests.

The headline numbers (opening winner, reachable-state counts, the uniform
random-play win probability) were produced once by this solver, cross-checked
by Monte Carlo and by an independent reimplementation during development, and
are frozen here as regression anchors.
"""

import ast
import gc
import hashlib
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import chain, pairwise
from pathlib import Path

import pytest

import flux
import flux.engine
import flux.solver
from flux.agents import RandomAgent
from flux.arena import classify_failure, play_game
from flux.cli import main
from flux.engine import (
    MAX_PLIES,
    GameState,
    Role,
    TerminalStatus,
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
from flux.qlearn import standard_graph
from flux.solver import (
    OptimalAgent,
    default_solved,
    export_solved,
    game_graph,
    optimal_policy,
    random_win_prob,
    random_win_table,
    reachable_states,
    solve,
)

from conftest import load_rows

RANDOM_PLAY_SHRINKER_WIN = 0.29231361218346746
SOLVED_TXT_SHA256 = "c0f2cea6b3ecc7969be53ce7ee2e4a94ba4bcbcd80dca66ed4baed857ed9cc78"
# SHA-256 of "key\tcode\n" for the optimal move at every live state, in key order
OPTIMAL_MOVES_SHA256 = "209378b7118b05b4dcb4539de1ed35e40faf90983e088dbf313ab8f4d96d2d52"
# SHA-256 of "key\n" per live state, then "key\tlabel\n" per terminal state, in
# the order reachable_states lists them (benchmarks pick live states by index)
REACHABLE_ORDER_SHA256 = "241cd3ed118244431a513ed510ad81c14454650d3bbbdba14b643e6646589400"
# SHA-256 of "key\twinner,depth\n" per entry of solve().value, in the table's own order
SOLVED_TABLE_SHA256 = "34b6da3c5c15ac4f39b93f635ba5b347167f64c772b6e093cb90591500448dc6"
# SHA-256 of "key\tvalue!r\n" per entry of random_win_table(), float and exact, in
# each table's own order: every bit of every probability, and the key order
RANDOM_TABLE_SHA256 = "83f99c1ab8e38f78fe1141126e2fe4fa09d8e9a1a5157dfd6192750e52c3f0a0"
RANDOM_TABLE_EXACT_SHA256 = "6676b23dba87bfcdc979de769101aea07881975e4b840356cce6ae8850d13260"
# live states that no line of play from the opening reaches: the opening row one
# move on, a row the game never holds, and a sub-game's root one move early (its
# row is in the sub-game's last layer, which a negative layer index would read)
SUB_ROOT = GameState((12, 1, 2), 5)
UNSOLVED = (GameState((2, 1, 3, 1, 2), 1), GameState((1, 1, 1, 1, 1, 1), 0))
BEFORE_SUB_ROOT = GameState((12, 1, 2), 4)
# a root with seven cells: its rows offer up to 14 moves, so the lcm of the numbers of
# moves, the root of the exact tables' common denominator, is 840, not the standard 120
SEVEN_CELLS = GameState((1,) * 7, 8)


def test_reachable_state_counts(solved):
    reach = reachable_states(initial_state())
    shrinker_turn = [s for s in reach.ongoing if s.moves_played % 2 == 0]
    amplifier_turn = [s for s in reach.ongoing if s.moves_played % 2 == 1]
    assert len(shrinker_turn) == 4426
    assert len(amplifier_turn) == 3984
    # the solved value table covers exactly the live positions plus terminals
    assert len(solved.value) == len(reach.ongoing) + len(reach.terminal)


def _reachable_digest(reach) -> str:
    digest = hashlib.sha256()
    for state in reach.ongoing:
        digest.update(f"{state_key(state)}\n".encode())
    for state, status in reach.terminal:
        digest.update(f"{state_key(state)}\t{status.label}\n".encode())
    return digest.hexdigest()


def test_reachable_order_is_frozen():
    assert _reachable_digest(reachable_states()) == REACHABLE_ORDER_SHA256


def test_reachable_states_index_like_lists():
    # the views are read-only sequences: int and negative indexing, iteration
    # and random.sample work as they did on lists, and a state is built per read
    reach = reachable_states()
    ongoing, terminal = list(reach.ongoing), list(reach.terminal)
    assert (len(ongoing), len(terminal)) == (8410, 8203)
    assert reach.ongoing[-1] == ongoing[-1] and reach.ongoing[0] == initial_state()
    assert reach.terminal[-len(terminal)] == terminal[0]
    for view, n in ((reach.ongoing, len(ongoing)), (reach.terminal, len(terminal))):
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                view[index]
    picked = random.Random(4).sample(reach.terminal, 5)
    assert len(picked) == 5
    for state, status in picked:
        assert isinstance(state, GameState) and isinstance(status, TerminalStatus)
        assert status.is_terminal and status is status_of(state)
    with pytest.raises(TypeError):
        reach.ongoing[0] = initial_state()


@pytest.mark.parametrize("root", [initial_state(), SUB_ROOT], ids=["standard", "sub-game"])
def test_ongoing_keys_come_from_the_graph(root):
    # keys are built from the row prefixes and the move count, no GameState made
    reach = reachable_states(root)
    for role in Role:
        assert reach.ongoing_keys(role) == {state_key(s) for s in reach.ongoing if role_to_move(s) is role}
    assert reach.ongoing_keys() == {state_key(s) for s in reach.ongoing}
    assert len(reach.ongoing_keys()) == len(reach.ongoing)


def test_reachable_states_keep_their_own_graph(monkeypatch):
    # a later solve of another root evicts game_graph's cached graph, but the
    # views read the one they were built from and step no row again
    reach = reachable_states()
    solve(SUB_ROOT)
    calls = [0]

    def counting_step(cells, index, op):
        calls[0] += 1
        return flux.engine._step(cells, index, op)

    monkeypatch.setattr(flux.solver, "_step", counting_step)
    assert _reachable_digest(reach) == REACHABLE_ORDER_SHA256
    assert len(reach.ongoing_keys(Role.SHRINKER)) == 4426
    assert calls == [0]
    reachable_states()  # the standard graph really was evicted: it is built again here
    assert calls == [15048]


def test_reachable_states_build_no_states():
    # with the graph cached, one array of positions per kind and the terminal
    # statuses: 8,410 states and 8,203 (state, status) pairs would hold 1.4 MiB
    game_graph(initial_state())
    assert _traced_peak(reachable_states) <= 256 * 2**10


def test_every_graph_edge_matches_the_checked_apply():
    # the graph moves through the engine's unchecked step, once per live row;
    # every edge of every live state must be what the public, checked apply
    # gives for that action, at that state's own move count
    states = edges = 0
    graph = game_graph(initial_state())
    ids, rows, kids, layers, prefixes = graph.ids, graph.rows, graph.kids, graph.layers, graph.prefixes
    assert rows == list(ids) and [ids[row] for row in rows] == list(range(len(rows)))
    assert prefixes == [state_key(GameState(row, 0))[:-1] for row in rows]
    for moves, ((layer, statuses), (below, below_statuses)) in enumerate(pairwise([*layers, ([], [])])):
        assert len(set(layer)) == len(layer)  # a layer holds each row once
        status_below = dict(zip(below, below_statuses))
        for i, status in zip(layer, statuses):
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


@pytest.fixture()
def graph_steps(monkeypatch):
    """A one-item list counting the graph's ``_step`` calls, from an empty graph cache."""
    calls = [0]

    def counting_step(cells, index, op):
        calls[0] += 1
        return flux.engine._step(cells, index, op)

    monkeypatch.setattr(flux.solver, "_step", counting_step)
    game_graph.cache_clear()  # a cached graph would be read, not stepped
    yield calls
    game_graph.cache_clear()


def test_graph_steps_each_live_row_once(graph_steps):
    # the children of a state depend only on its row, so a row live at many
    # move counts is stepped once: 15,048 steps for the 1,711 distinct live
    # rows, not one per edge of each of the 8,410 live states (74,108)
    reachable_states()
    assert graph_steps == [15048]


def test_solve_command_builds_the_graph_once(graph_steps, capsys):
    # the solved table, the float table and the exact table all read one graph
    # of the standard game: one build, not one each (45,144 steps)
    assert main(["solve", "--rational"]) == 0
    assert "exact value = " in capsys.readouterr().out
    assert graph_steps == [15048]


def test_exact_questions_leave_the_cached_graph_unchanged(solved):
    # every reader shares the one cached value, so none may change it
    solve()
    random_win_table(exact=True)
    live = reachable_states().ongoing
    for state in random.Random(5).sample(live, 100):
        optimal_policy(solved, state)
    assert game_graph(initial_state()) == game_graph.__wrapped__(initial_state())


def test_graph_and_solution_reprs_leave_out_the_tables(solved):
    # an error message or a debugger shows the root and counts, not 3,333 rows or 16 layers of scores
    assert repr(solved) == ("SolvedGame(root=GameState(cells=(2, 1, 3, 1, 2), moves_played=0), "
                            f"reachable_shrinker={solved.reachable_shrinker}, "
                            f"reachable_amplifier={solved.reachable_amplifier})")
    assert len(repr(solved.graph)) < 80


def test_cached_graph_stays_small():
    # the standard game's graph is kept for the life of the process
    game_graph.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        game_graph(initial_state())
        gc.collect()
        size = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert size <= 1.5 * 2**20


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
    game_graph.cache_clear()
    reach = reachable_states()
    game_graph.cache_clear()
    assert len(reach.ongoing) + len(reach.terminal) == 16613
    assert sum(s.moves_played == MAX_PLIES for s, _ in reach.terminal) == 1685
    assert calls == 3333 + 1685


ROOTS = pytest.mark.parametrize("root", [initial_state(), SUB_ROOT, SEVEN_CELLS], ids=["standard", "sub", "seven"])


@ROOTS
def test_every_root_numbers_its_live_states(root):
    # the numbering is the graph's, for any root: its positions are the root's live
    # states, ascending, and every state's key finds its position and is written back
    graph, reach = game_graph(root), reachable_states(root)
    live = [graph.position(s.cells, s.moves_played) for s in reach.ongoing]
    assert list(graph.live) == sorted(live) and len(set(live)) == len(live)
    assert [graph.number(pos) for pos in graph.live] == list(range(len(live)))
    for state in chain(reach.ongoing, (s for s, _ in reach.terminal)):
        key, pos = state_key(state), graph.position(state.cells, state.moves_played)
        assert graph.find(key) == pos >= 0 and graph.key(pos) == key
        assert (graph.number(pos) >= 0) is (status_of(state) is TerminalStatus.ONGOING)


def _spellings(key: str) -> dict[str, object]:
    """Keys that are not ``key``, most of which ``int()`` reads as ``key``'s numbers, by what they change."""
    cells, _, moves = key.partition("|")
    return {
        "+1": "+" + key,
        "01": "0" + key,
        " 1": " " + key,
        "1_0": f"{cells}|{moves[:-1]}_{moves[-1]}",
        "-0": f"{cells}|-{moves}",  # the opening's move count reads as 0
        "negative cell": "-" + key,
        "non-ASCII digit": chr(ord("\u0660") + int(key[0])) + key[1:],  # the first digit in Arabic-Indic
        "non-string": key.encode(),
    }


@ROOTS
def test_other_spellings_of_a_key_miss_in_every_table(root):
    # solved.value, the exact random-play table and QTable.entries all look a key up
    # through the graph's one find, so each misses the same spellings of a key it holds
    graph = game_graph(root)
    keys = [state_key(root), graph.key(next(pos for pos in graph.live if pos // graph.width >= 10))]
    views = {key: [solve(root).value, random_win_table(root, exact=True)] for key in keys}
    standard = standard_graph()
    held = [key for key in keys if standard.number(standard.find(key)) >= 0]  # the seven-cell root's are not
    entries = load_rows(Role.SHRINKER, {key: {0: 0.5} for key in held}).entries
    for key in held:
        views[key].append(entries)
    for key, tables in views.items():
        assert all(key in table for table in tables)
        for name, text in _spellings(key).items():
            for table in tables:
                assert text not in table, (key, name)
                with pytest.raises(KeyError):
                    table[text]


def test_one_module_numbers_and_parses_state_keys():
    # the state index is the graph's: only the solver bisects, and only the
    # engine's parser and the graph's one lookup split text on "|"
    bisects, splits = [], []
    for path in sorted(Path(flux.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    scopes.setdefault(inner, node.name)  # the outermost function holding the call
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and any(alias.name == "bisect" for alias in node.names):
                bisects.append(path.name)
            if isinstance(node, ast.ImportFrom) and node.module == "bisect":
                bisects.append(path.name)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("partition", "rpartition", "split", "rsplit", "index", "find")
                    and any(isinstance(arg, ast.Constant) and arg.value == "|" for arg in node.args)):
                splits.append((path.name, scopes.get(node)))
    assert bisects == ["solver.py"]
    assert sorted(splits) == [("engine.py", "state_from_key"), ("solver.py", "find")]


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


def test_solved_table_entries_and_order_are_frozen():
    # the string-keyed tables list the states in the order the backward pass
    # meets them: the deepest layer first
    result = solve()
    digest = hashlib.sha256()
    for key, winner in result.value.items():
        digest.update(f"{key}\t{winner.value},{result.depth[key]}\n".encode())
    assert digest.hexdigest() == SOLVED_TABLE_SHA256


def _four_tables(root):
    solved = solve(root)
    return solved.value, solved.depth, random_win_table(root), random_win_table(root, exact=True)


def test_tables_behave_like_read_only_dicts():
    # each string-keyed table is a view over values kept by row id: it finds
    # only the canonical key of a state it holds, and it cannot be changed
    opening = state_key(initial_state())
    # not canonical, not reachable, not a string, not a key
    missing = ("02,1,3,1,2|0", "2,1,3,1,2|1", 5, "x|y", "2,01|0", "+2,1|0", "2,,1|0", "|0", "2,1|", "2,1", "2_0,1|0", "2,1|0|0", "")
    for table, sub_table in zip(_four_tables(initial_state()), _four_tables(SUB_ROOT)):
        assert len(table) == len(list(table)) == 16613
        assert opening in table and table.get(opening) == table[opening]
        assert state_key(SUB_ROOT) in sub_table
        checks = [(table, key) for key in missing]
        checks += [(sub_table, key) for key in (*missing, state_key(BEFORE_SUB_ROOT))]
        for t, key in checks:
            assert key not in t
            assert t.get(key, "absent") == "absent"
            with pytest.raises(KeyError):
                t[key]
        with pytest.raises(TypeError):
            table[opening] = table[opening]


def test_winner_reads_the_scores(solved):
    reach = reachable_states()
    states = [*reach.ongoing, *(s for s, _ in reach.terminal)]
    assert len(states) == 16613
    for state in states:
        assert solved.winner(state) is solved.value[state_key(state)]
    for state in UNSOLVED:
        assert solved.winner(state) is None
    assert solved.winner(GameState(initial_state().cells, MAX_PLIES + 1)) is None  # past the last layer
    sub = solve(SUB_ROOT)
    assert sub.winner(SUB_ROOT) is Role.AMPLIFIER
    assert sub.winner(BEFORE_SUB_ROOT) is None


def test_a_solved_game_outlives_the_cached_graph(solved):
    # a SolvedGame keeps the graph its scores index, so clearing the cache
    # changes none of its answers or tables
    expected_value, expected_depth = solved.value, solved.depth
    earlier = solve()
    live = random.Random(31).sample(reachable_states().ongoing, 300)
    answers = [(earlier.winner(s), optimal_policy(earlier, s)) for s in live]
    game_graph.cache_clear()
    assert [(earlier.winner(s), optimal_policy(earlier, s)) for s in live] == answers
    assert earlier.value == expected_value
    assert earlier.depth == expected_depth
    assert list(earlier.value) == list(expected_value)


def test_solved_games_read_their_own_graphs(graph_steps):
    # questions that alternate between two solved roots rebuild neither graph;
    # read through the one-root cache, these rounds made 105,336 steps
    full, sub = solve(), solve(GameState((4, 1, 3, 1, 2), 1))
    graph_steps[0] = 0
    rounds = [(full.winner(sub.root), sub.winner(sub.root), optimal_policy(full, initial_state())) for _ in range(3)]
    assert graph_steps == [0]
    assert rounds[0][0] is rounds[0][1] and rounds == rounds[:1] * 3


def _traced_peak(run) -> int:
    """The peak of memory traced while ``run()`` runs, above what was traced before."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_solve_result_is_its_scores():
    # with the graph cached, solve returns one byte per row and layer (57 KiB
    # for the standard game), and its string-keyed tables are views over them;
    # a dict of 16,613 keys per table would keep 1.8 MiB
    key = state_key(initial_state())
    game_graph(initial_state())
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = solve()
        assert (result.value[key], result.depth[key]) == (Role.AMPLIFIER, 15)
        assert len(result.value) == len(result.depth) == 16613
        gc.collect()
        size = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert size <= 128 * 2**10


def test_play_and_classification_leave_the_tables_unbuilt():
    # set-up, optimal play, failure tags and a string-keyed read build no
    # 16,613-key table (1.8 MiB); a reachable-state list is made outside
    default_solved.cache_clear()
    solved = default_solved()
    live = random.Random(9).sample(reachable_states().ongoing, 100)
    tags = []

    def play():
        for state in live:
            optimal_policy(solved, state)
        records = [play_game(OptimalAgent(), RandomAgent(), seed=s) for s in range(3)]
        records += [play_game(RandomAgent(), RandomAgent(), seed=s) for s in range(3)]
        tags.extend(tag for record in records for _, tag in classify_failure(record))
        assert solved.value[state_key(initial_state())] is Role.AMPLIFIER

    assert _traced_peak(play) <= 2**19
    assert "myopia" in tags  # a random mover throws away a won position


def test_solve_command_leaves_the_tables_unbuilt(capsys, tmp_path):
    # the opening's line comes from the scores and solved.txt straight from
    # them: no 16,613-key table (1.8 MiB), only the float random-play values.
    # A first run loads what the command imports on first use (argparse's gettext
    # imports locale): interning those names can resize the interpreter's table of
    # interned strings, 0.4-1 MiB more, by how many names earlier code interned
    game_graph(initial_state())
    main(["solve", "-o", str(tmp_path)])
    default_solved.cache_clear()
    assert _traced_peak(lambda: main(["solve", "-o", str(tmp_path)])) <= 2**20
    assert "amplifier wins under best play in 15 plies" in capsys.readouterr().out
    assert hashlib.sha256((tmp_path / "solved.txt").read_bytes()).hexdigest() == SOLVED_TXT_SHA256


def test_enumerate_round_builds_no_tables(tmp_path):
    # the benchmark's enumerate round with the graph cached: the states, the
    # scores, both random-play passes, solved.txt and 1,000 string-keyed reads;
    # about 1.1 MiB; a dict per table and a sorted key list for the export would
    # peak at 6.9 MiB, lists of the reachable states at 3.5 MiB, and random-play
    # tables of a float object and a Fraction a state at 2.1 MiB
    game_graph(initial_state())
    kept = []

    def round_():
        reach = reachable_states()
        solved = solve()
        kept.extend([reach, solved, random_win_table(), random_win_table(exact=True)])
        export_solved(solved, str(tmp_path / "solved.txt"))
        for state in random.Random(3).sample(reach.ongoing, 1000):
            solved.value[state_key(state)]

    assert _traced_peak(round_) <= 1.75 * 2**20


def test_export_builds_no_table(tmp_path):
    # solved.txt goes out a line at a time from the scores, rows sorted by their
    # key prefixes; the tables and a sorted key list would peak at 1.9 MiB
    path, solved = tmp_path / "solved.txt", solve()
    assert _traced_peak(lambda: export_solved(solved, str(path))) <= 2**19
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SOLVED_TXT_SHA256


def test_random_win_prob_builds_no_table():
    # one number from values kept by row id, not from 16,613 string keys (1.63 MiB)
    game_graph(initial_state())
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert random_win_prob(initial_state()) == RANDOM_PLAY_SHRINKER_WIN
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 2**20


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


def _sub_game_roots() -> list[GameState]:
    """Seeded live roots of both movers, plus one a single move before the end."""
    live = reachable_states().ongoing
    roots = random.Random(23).sample(live, 19)
    roots.append(next(s for s in live if s.moves_played == 14))
    assert {role_to_move(r) for r in roots} == {Role.SHRINKER, Role.AMPLIFIER}
    return roots


def test_sub_games_agree_with_the_full_game(solved):
    full_exact = random_win_table(exact=True)
    for root in _sub_game_roots():
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


def _fraction_reference(root: GameState) -> dict[str, Fraction]:
    """The exact random-play table by ``Fraction`` arithmetic, one lcm of the children's denominators a state."""

    def node(seat, outcomes, n):  # _backward hands over the children's values as an iterator, and their number
        outcomes = list(outcomes)
        lcd = 1
        for q in outcomes:
            lcd = math.lcm(lcd, q.denominator)
        return Fraction(sum(q.numerator * (lcd // q.denominator) for q in outcomes), lcd * n)

    graph = game_graph(root)
    values = flux.solver._backward(graph, (Fraction(1), Fraction(0)), node, lambda n: [None] * n)
    return {graph.prefixes[i] + str(root.moves_played + d): values[d][i]
            for d, (layer, _) in enumerate(graph.layers) for i in layer}


def test_exact_integers_agree_with_fraction_arithmetic():
    # the exact pass keeps integers over one common denominator and divides each
    # sum of children exactly; every state must read as the Fraction pass gives it
    assert status_of(SEVEN_CELLS) is TerminalStatus.ONGOING
    assert math.lcm(*map(len, game_graph(SEVEN_CELLS).kids.values())) == 840
    for root in [initial_state(), *_sub_game_roots(), SEVEN_CELLS]:
        table = random_win_table(root, exact=True)
        assert table == _fraction_reference(root), state_key(root)
        p = random_win_prob(root, exact=True)
        assert type(p) is Fraction and math.gcd(p.numerator, p.denominator) == 1
        assert p == table[state_key(root)]


def test_no_empty_slot_reads_as_a_value():
    # each view keeps its values by layer and row id, with a marker where a layer
    # lacks a row (a score of 0, NaN among floats, None among exact values), and a
    # random-play layer ends after its highest row id: none of these reads as a value
    graph = game_graph(initial_state())
    rows, layers = graph.rows, graph.layers
    widths = [max(layer) + 1 for layer, _ in layers]
    assert sum(widths) == 31513
    holes = [GameState(rows[min(set(range(w)) - set(layer))], d)
             for d, ((layer, _), w) in enumerate(zip(layers, widths)) if len(layer) < w]
    assert len(holes) == len(layers) - 1  # every layer but the opening one has a hole
    past = [GameState(rows[widths[0]], 0), GameState(rows[-1], 0), GameState(rows[widths[10]], 10)]
    cases = [(initial_state(), state) for state in (*UNSOLVED, *holes, *past)] + [(SUB_ROOT, BEFORE_SUB_ROOT)]
    for root in (initial_state(), SUB_ROOT):
        solved = solve(root)
        tables = _four_tables(root)
        for state in (state for r, state in cases if r == root):
            assert solved.winner(state) is None
            for table in tables:
                assert state_key(state) not in table
                with pytest.raises(KeyError):
                    table[state_key(state)]
    floats = random_win_table()
    assert len(floats) == 16613
    assert all(0.0 <= p <= 1.0 for p in floats.values())  # NaN fails both


@pytest.mark.parametrize(("exact", "bound"), [(False, 320 * 2**10), (True, 0.85 * 2**20)], ids=["float", "exact"])
def test_random_tables_stay_flat(exact, bound):
    # with the graph cached: 31,513 slots of 8 bytes in arrays (250 KiB), or one
    # int of about 100 bits a state in lists (485 KiB); a float object a state in
    # lists 3,333 slots wide would keep 617 KiB, and a Fraction a state 1.1 MiB
    game_graph(initial_state())
    kept = []
    assert _traced_peak(lambda: kept.append(random_win_table(exact=exact))) <= bound


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
    for state in UNSOLVED:
        assert not status_of(state).is_terminal
        with pytest.raises(StateError, match="never solved"):
            optimal_policy(solved, state)
    with pytest.raises(StateError, match="never solved"):
        optimal_policy(solve(SUB_ROOT), BEFORE_SUB_ROOT)


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

    @pytest.mark.parametrize(
        ("exact", "expected"), [(False, RANDOM_TABLE_SHA256), (True, RANDOM_TABLE_EXACT_SHA256)]
    )
    def test_tables_are_frozen(self, exact, expected):
        digest = hashlib.sha256()
        for key, value in random_win_table(exact=exact).items():
            digest.update(f"{key}\t{value!r}\n".encode())
        assert digest.hexdigest() == expected

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
