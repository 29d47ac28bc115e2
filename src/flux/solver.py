"""Exact solver: one layered game graph, evaluated backwards from its leaves.

Every move adds one to the move count, so the game from any root (at most 15
plies) falls into layers by move count, built breadth first through the
unchecked step ``apply`` shares; a layer deduplicates child rows before a
state is built.  A backward pass over the layers (retrograde analysis) gives
the winner under best play and ``depth``, how many plies the game lasts when
the winner hurries and the loser stalls; another gives the Shrinker's win
probability when both sides play uniformly at random, in double precision or
exact rational arithmetic.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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


def _layers(root: GameState) -> Iterator[tuple[list[GameState], list[TerminalStatus], array, array]]:
    """Breadth-first layers from ``root``, one per move count.

    Yields ``(states, statuses, offsets, children)`` for each layer.  States
    are in order of discovery and each appears once.  The children of state
    ``i`` are ``children[offsets[i]:offsets[i + 1]]``: indices into the next
    layer, one per legal action in encoded-action order.

    Edges move through ``_step``, the unchecked rule ``apply`` shares, and a
    layer shares one move count, so each child row is deduplicated before a
    ``GameState`` and its status are made: once per state, not per edge.
    """
    states, statuses = [root], [status_of(root)]
    while states:
        moves = states[0].moves_played + 1
        index: dict[tuple[int, ...], int] = {}
        below: list[GameState] = []
        below_statuses: list[TerminalStatus] = []
        offsets, children = array("I", [0]), array("I")
        for state, status in zip(states, statuses):
            if status is ONGOING:
                cells = state.cells
                for action in _row_actions(len(cells)):
                    row = _step(cells, action.index, action.op)
                    i = index.get(row)
                    if i is None:
                        i = index[row] = len(below)
                        child = GameState(row, moves)
                        below.append(child)
                        below_statuses.append(status_of(child))
                    children.append(i)
            offsets.append(len(children))
        yield states, statuses, offsets, children
        states, statuses = below, below_statuses


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
    reach = Reachable(ongoing=[], terminal=[])
    for states, statuses, _, _ in _layers(root if root is not None else initial_state()):
        for state, status in zip(states, statuses):
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
    values in encoded-action order.
    """
    # each layer's states go as soon as they have keys; the graph keeps indices
    graph = [([state_key(s) for s in states], *rest) for states, *rest in _layers(root)]
    below: list[T] = []
    for layer in range(len(graph) - 1, -1, -1):
        keys, statuses, offsets, children = graph.pop()
        here: list[T] = []
        for key, status, start, end in zip(keys, statuses, offsets, offsets[1:]):
            live = status is ONGOING
            value = node(layer, [below[c] for c in children[start:end]]) if live else leaf(status)
            here.append(value)
            yield key, value
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
