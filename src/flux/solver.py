"""Exact solver: one row graph, evaluated backwards from its leaves.

A state's children depend only on its row: the 16,613 states of the standard
game hold 3,333 distinct rows, and each live row's children are found once,
through the unchecked step ``apply`` shares.  Layers, one per move count (at
most 15 from any root), list the rows they hold, and each state is classified
once, by ``status_of``.  A backward pass over the layers (retrograde analysis)
gives the winner under best play and ``depth``, the plies to the end when the
winner hurries and the loser stalls; another gives the Shrinker's win
probability under uniform random play, in double precision or exact.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import TypeVar

from .agents import AgentPolicy, argmax_by_code
from .engine import (
    ONGOING,
    Action,
    GameState,
    Role,
    TerminalStatus,
    _row_actions,
    _step,
    apply,
    initial_state,
    role_to_move,
    state_key,
    status_of,
)
from .errors import StateError

T = TypeVar("T")
_Layer = tuple[list[int], list[TerminalStatus]]  # row ids at one move count, their statuses


def _layers(root: GameState) -> tuple[list[tuple[int, ...]], dict[int, list[int]], list[_Layer]]:
    """The row graph from ``root``: ``(rows, kids, layers)``.

    ``rows[i]`` holds the cells of row id ``i``.  ``kids[i]`` lists the ids of
    that row's children, one per legal action in encoded-action order; it is
    built through ``_step`` once, the first time the row is live.  Layer ``d``
    is ``(ids, statuses)``: the distinct rows at move count
    ``root.moves_played + d`` in order of discovery, and each state's status
    from ``status_of``.  The next layer is the children of the live rows,
    first seen first.
    """
    ids: dict[tuple[int, ...], int] = {root.cells: 0}
    kids: dict[int, list[int]] = {}
    layers: list[_Layer] = []
    layer, moves = [0], root.moves_played
    while layer:
        rows = list(ids)  # row i is the i-th key: a dict keeps insertion order
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
    return list(ids), kids, layers


@dataclass
class Reachable:
    """Forward closure from a root: every state any sequence of legal moves can hit."""

    ongoing: list[GameState]
    terminal: list[tuple[GameState, TerminalStatus]]

    def ongoing_keys(self, role: Role | None = None) -> frozenset[str]:
        return frozenset(
            state_key(s)
            for s in self.ongoing
            if role is None or role_to_move(s) is role
        )


def reachable_states(root: GameState | None = None) -> Reachable:
    """Breadth-first closure; children are discovered in encoded-action order."""
    root = root if root is not None else initial_state()
    rows, _, layers = _layers(root)
    reach = Reachable(ongoing=[], terminal=[])
    for moves, (ids, statuses) in enumerate(layers, root.moves_played):
        for i, status in zip(ids, statuses):
            state = GameState(rows[i], moves)
            if status is ONGOING:
                reach.ongoing.append(state)
            else:
                reach.terminal.append((state, status))
    return reach


def _backward(
    root: GameState, leaf: Callable[[TerminalStatus], T], node: Callable[[int, list[T]], T]
) -> Iterator[tuple[str, T]]:
    """Yield ``(key, value)`` for every state reachable from ``root``, deepest layer first.

    A terminal state is worth ``leaf(status)``.  A live state is worth
    ``node(layer, values)``: its distance from the root and its children's
    values in encoded-action order, read by row id from the layer below.
    """
    rows, kids, layers = _layers(root)
    # a row's key prefix comes from state_key once; each state appends its move count
    prefixes = [state_key(GameState(row, 0))[:-1] for row in rows]
    below: dict[int, T] = {}
    for layer in range(len(layers) - 1, -1, -1):
        ids, statuses = layers.pop()
        moves = str(root.moves_played + layer)
        here: dict[int, T] = {}
        for i, status in zip(ids, statuses):
            live = status is ONGOING
            value = here[i] = node(layer, [below[c] for c in kids[i]]) if live else leaf(status)
            yield prefixes[i] + moves, value
        below = here


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
    movers = (role_to_move(root), role_to_move(root).opponent)  # the players alternate
    counts = {Role.SHRINKER: 0, Role.AMPLIFIER: 0}

    def best(layer: int, outcomes: list[tuple[Role, int]]) -> tuple[Role, int]:
        # the mover wins as fast as it can, or else loses as slowly as it can
        mover = movers[layer % 2]
        counts[mover] += 1
        win_depths = [d for w, d in outcomes if w is mover]
        if win_depths:
            return mover, 1 + min(win_depths)
        return mover.opponent, 1 + max(d for _, d in outcomes)

    value, depth = {}, {}
    for key, (winner, plies) in _backward(root, lambda s: (s.winner, 0), best):
        value[key] = winner
        depth[key] = plies
    return SolvedGame(root, value, depth, counts[Role.SHRINKER], counts[Role.AMPLIFIER])


def optimal_policy(solved: SolvedGame, state: GameState) -> Action:
    """Best move: win as fast as possible, or lose as slowly as possible.

    Ties resolve to the lowest encoded action so the policy is a function.
    """
    if status_of(state).is_terminal:
        raise StateError("no move to pick in a finished game")
    if state_key(state) not in solved.value:
        raise StateError(f"state {state_key(state)!r} was never solved (unreachable from the root)")
    mover = role_to_move(state)

    def score(action: Action) -> tuple[int, int]:
        # Winning beats losing; among wins prefer small depth, among losses
        # prefer large depth.  A solved state's children, terminal or not,
        # are solved too.
        key = state_key(apply(state, action)[0])
        d = solved.depth[key]
        return (1, -d) if solved.value[key] is mover else (0, d)

    return argmax_by_code(state, score)


def random_win_table(root: GameState | None = None, exact: bool = False) -> dict[str, float | Fraction]:
    """Shrinker win probability at every reachable state when both sides play uniformly."""
    one: float | Fraction = Fraction(1) if exact else 1.0
    zero: float | Fraction = Fraction(0) if exact else 0.0

    def mean(layer: int, outcomes: list[float | Fraction]) -> float | Fraction:
        if exact:  # over one common denominator: one gcd per state, not one per child
            lcd = 1
            for p in outcomes:  # not lcm(*...), whose shrunk argument tuples pile up on free lists
                lcd = math.lcm(lcd, p.denominator)
            total = sum(p.numerator * (lcd // p.denominator) for p in outcomes)
            return Fraction(total, lcd * len(outcomes))
        total = zero  # one by one in encoded-action order; sum() rounds differently on 3.12+
        for p in outcomes:
            total = total + p
        return total / len(outcomes)

    root = root if root is not None else initial_state()
    return dict(_backward(root, lambda s: one if s.winner is Role.SHRINKER else zero, mean))


def random_win_prob(
    state: GameState, table: dict[str, float | Fraction] | None = None, exact: bool = False
) -> float | Fraction:
    if table is None:
        table = random_win_table(state, exact=exact)
    return table[state_key(state)]


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
