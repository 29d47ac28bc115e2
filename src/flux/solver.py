"""Exact solver: one row graph per root, evaluated backwards from its leaves.

A state's children depend only on its row, and so does its status below the
ply limit: the 16,613 states of the standard game hold 3,333 distinct rows,
each live row is stepped once, through the unchecked step ``apply`` shares,
and ``status_of`` runs once per row and once per state at the limit.  Layers,
one per move count (at most 15 from any root), list the rows they hold.
``game_graph`` builds the graph once per root and keeps the last one; every
exact question reads it and none changes it.  A backward pass (retrograde
analysis) gives each state one signed integer score, read as the winner under
best play and ``depth``, the plies to the end when the winner hurries and the
loser stalls; another gives the Shrinker's win probability under uniform
random play, as a float or exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, islice
from operator import add
from typing import TYPE_CHECKING

from .agents import AgentPolicy
from .engine import (
    _AMPLIFIER,
    _SHRINKER,
    MAX_PLIES,
    ONGOING,
    Action,
    GameState,
    Role,
    TerminalStatus,
    _row_actions,
    _seat_to_move,
    _step,
    initial_state,
    role_to_move,
    state_key,
    status_of,
)
from .errors import StateError

if TYPE_CHECKING:
    from fractions import Fraction

_Layer = tuple[list[int], list[TerminalStatus]]  # row ids at one move count, their statuses
_Graph = tuple[dict[tuple[int, ...], int], dict[int, list[int]], list[_Layer], list[str]]


@lru_cache(maxsize=1)
def game_graph(root: GameState) -> _Graph:
    """The row graph from ``root``: ``(ids, kids, layers, prefixes)``.  Read it; never change it.

    ``ids`` maps each row's cells to its row id, in order of discovery.
    ``kids[i]`` lists the ids of row ``i``'s children, one per legal action in
    encoded-action order; it is built through ``_step`` once, the first time
    the row is live.  Layer ``d`` is ``(ids, statuses)``: the distinct rows at
    move count ``root.moves_played + d`` in order of discovery, and each
    state's status, its row's below the ply limit.  The next layer is the
    children of the live rows, first seen first.  ``prefixes[i]`` is the key
    of row ``i`` up to its move count, so ``prefixes[i] + str(moves)`` is
    ``state_key`` of that state.
    """
    ids, rows = {root.cells: 0}, []  # cells -> row id in order of discovery, and row id -> cells
    kids: dict[int, list[int]] = {}
    row_statuses: list[TerminalStatus] = []
    layers: list[_Layer] = []
    layer, moves = [0], root.moves_played
    while layer:
        rows += islice(ids, len(rows), None)  # the rows found since the last layer
        row_statuses += [status_of(GameState(row, 0)) for row in rows[len(row_statuses):]]
        if moves < MAX_PLIES:  # status_of tests the move count last, after the sum and the length
            statuses = [row_statuses[i] for i in layer]
        else:
            statuses = [status_of(GameState(rows[i], moves)) for i in layer]
        live = [i for i, status in zip(layer, statuses) if status is ONGOING]
        for i in live:
            if i not in kids:
                cells = rows[i]
                steps = (_step(cells, a.index, a.op) for a in _row_actions(len(cells)))
                kids[i] = [ids.setdefault(row, len(ids)) for row in steps]
        layers.append((layer, statuses))
        layer = list(dict.fromkeys(chain.from_iterable([kids[i] for i in live])))
        moves += 1
    # a row's key prefix comes from state_key once; each state appends its move count
    prefixes = [state_key(GameState(row, 0))[:-1] for row in rows]
    return ids, kids, layers, prefixes


@dataclass
class Reachable:
    """Forward closure from a root: every state any sequence of legal moves can hit."""

    ongoing: list[GameState]
    terminal: list[tuple[GameState, TerminalStatus]]

    def ongoing_keys(self, role: Role | None = None) -> frozenset[str]:
        keys = (state_key(s) for s in self.ongoing if role is None or role_to_move(s) is role)
        return frozenset(keys)


def reachable_states(root: GameState | None = None) -> Reachable:
    """Breadth-first closure; children are discovered in encoded-action order."""
    root = root if root is not None else initial_state()
    ids, _, layers, _ = game_graph(root)
    rows = list(ids)  # row id -> cells
    reach = Reachable(ongoing=[], terminal=[])
    for moves, (layer, statuses) in enumerate(layers, root.moves_played):
        for i, status in zip(layer, statuses):
            state = GameState(rows[i], moves)
            if status is ONGOING:
                reach.ongoing.append(state)
            else:
                reach.terminal.append((state, status))
    return reach


@dataclass
class SolvedGame:
    root: GameState
    value: dict[str, Role]  # winner under optimal play, terminal states included
    depth: dict[str, int]  # plies to the end: winner minimises, loser maximises
    reachable_shrinker: int  # ongoing states with the Shrinker to move
    reachable_amplifier: int


def solve(root: GameState | None = None) -> SolvedGame:
    root = root if root is not None else initial_state()
    if status_of(root) is not ONGOING:
        raise StateError("root state is already decided")
    ids, kids, layers, prefixes = game_graph(root)
    # one score per state, from the Shrinker's side: horizon - depth if the Shrinker
    # wins, depth - horizon if the Amplifier does; no depth reaches horizon, so no score is 0
    horizon, value, depth, below = len(layers), {}, {}, []
    counts = [0, 0]  # live states by the mover's seat
    for moves, (layer, statuses) in reversed([*enumerate(layers, root.moves_played)]):
        seat = _seat_to_move(moves)
        pick = max if seat == 0 else min  # the Shrinker's best score is the highest
        here, suffix, live = [0] * len(ids), str(moves), 0
        for i, status in zip(layer, statuses):
            if status is ONGOING:
                # the fastest win, or else the slowest loss, one ply further from the end
                s = pick(map(below.__getitem__, kids[i]))
                s = here[i] = s - 1 if s > 0 else s + 1
                live += 1
            else:
                s = here[i] = horizon if status.winner is _SHRINKER else -horizon
            key = prefixes[i] + suffix
            value[key] = _SHRINKER if s > 0 else _AMPLIFIER
            depth[key] = horizon - abs(s)
        counts[seat] += live
        below = here
    return SolvedGame(root, value, depth, *counts)


def optimal_policy(solved: SolvedGame, state: GameState) -> Action:
    """Best move: win as fast as possible, or lose as slowly as possible.

    Ties resolve to the lowest encoded action so the policy is a function.
    """
    if status_of(state).is_terminal:
        raise StateError("no move to pick in a finished game")
    if state_key(state) not in solved.value:
        raise StateError(f"state {state_key(state)!r} was never solved (unreachable from the root)")
    mover = role_to_move(state)
    ids, kids, _, prefixes = game_graph(solved.root)
    keys = [prefixes[kid] + str(state.moves_played + 1) for kid in kids[ids[state.cells]]]
    # Winning beats losing; among wins prefer small depth, among losses prefer
    # large depth.  A solved state's children, terminal or not, are solved too.
    scores = [(1, -solved.depth[k]) if solved.value[k] is mover else (0, solved.depth[k]) for k in keys]
    # the keys follow encoded-action order, and max keeps the first best: the lowest code
    return _row_actions(len(state.cells))[max(range(len(keys)), key=scores.__getitem__)]


def random_win_table(root: GameState | None = None, exact: bool = False) -> dict[str, float | Fraction]:
    """Shrinker win probability at every reachable state when both sides play uniformly."""
    if exact:
        from fractions import Fraction  # only an exact table loads it
    one, zero = (Fraction(1), Fraction(0)) if exact else (1.0, 0.0)
    root = root if root is not None else initial_state()
    ids, kids, layers, prefixes = game_graph(root)
    table, below = {}, []
    for moves, (layer, statuses) in reversed([*enumerate(layers, root.moves_played)]):
        here, suffix = [zero] * len(ids), str(moves)
        for i, status in zip(layer, statuses):
            if status is not ONGOING:
                p = one if status.winner is _SHRINKER else zero
            elif exact:  # over one common denominator: one gcd per state, not one per child
                outcomes, lcd = [below[c] for c in kids[i]], 1
                for q in outcomes:  # not lcm(*...), whose argument tuples pile up on free lists
                    lcd = math.lcm(lcd, q.denominator)
                total = sum(q.numerator * (lcd // q.denominator) for q in outcomes)
                p = Fraction(total, lcd * len(outcomes))
            else:  # one by one in encoded-action order; sum() rounds differently on 3.12+
                p = reduce(add, map(below.__getitem__, kids[i]), zero) / len(kids[i])
            here[i] = table[prefixes[i] + suffix] = p
        below = here
    return table


def random_win_prob(state: GameState, exact: bool = False) -> float | Fraction:
    return random_win_table(state, exact=exact)[state_key(state)]


def export_solved(solved: SolvedGame, path: str) -> None:
    """One line per solved state: winner and plies-to-end under best play."""
    lines = ["#kind=solved", f"#root={state_key(solved.root)}"]
    for key in sorted(solved.value):
        lines.append(f"{key}\t{solved.value[key].value},{solved.depth[key]}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@lru_cache(maxsize=1)
def default_solved() -> SolvedGame:
    """The solved standard game, computed once per process."""
    return solve()


class OptimalAgent(AgentPolicy):
    name = "optimal"

    def __init__(self, solved: SolvedGame | None = None) -> None:
        super().__init__()
        self.solved = solved if solved is not None else default_solved()

    def choose(self, state, role, rng):
        return optimal_policy(self.solved, state)
