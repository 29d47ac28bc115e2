"""Exact solver: full enumeration and backward induction over the reachable game.

The game tree from any root is finite (at most 15 plies), so the winner under
best play is computed exactly by memoised recursion.  ``depth`` records how
many plies the game lasts when the winner hurries and the loser stalls.  The
same enumeration yields the Shrinker's win probability when both sides play
uniformly at random, in double precision or exact rational arithmetic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .agents import AgentPolicy, argmax_by_code
from .engine import (
    Action,
    GameState,
    Role,
    TerminalStatus,
    apply,
    initial_state,
    legal_actions,
    role_to_move,
    state_key,
    status_of,
)
from .errors import StateError


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
    """Breadth-first closure; children expand in encoded-action order."""
    root = root if root is not None else initial_state()
    seen: set[str] = set()
    ongoing: list[GameState] = []
    terminal: list[tuple[GameState, TerminalStatus]] = []
    queue: deque[GameState] = deque()

    def admit(state: GameState, status: TerminalStatus) -> None:
        key = state_key(state)
        if key in seen:
            return
        seen.add(key)
        if status.is_terminal:
            terminal.append((state, status))
        else:
            ongoing.append(state)
            queue.append(state)

    admit(root, status_of(root))
    while queue:
        state = queue.popleft()
        for action in legal_actions(state):
            child, status = apply(state, action)
            admit(child, status)
    return Reachable(ongoing=ongoing, terminal=terminal)


@dataclass
class SolvedGame:
    root: GameState
    value: dict[str, Role]  # winner under optimal play, terminal states included
    depth: dict[str, int]  # plies to the end: winner minimises, loser maximises
    reachable_shrinker: int  # ongoing states with the Shrinker to move
    reachable_amplifier: int


def solve(root: GameState | None = None) -> SolvedGame:
    root = root if root is not None else initial_state()
    if status_of(root).is_terminal:
        raise StateError("root state is already decided")
    value: dict[str, Role] = {}
    depth: dict[str, int] = {}
    counts = {Role.SHRINKER: 0, Role.AMPLIFIER: 0}

    def visit(state: GameState) -> tuple[Role, int]:
        key = state_key(state)
        if key in value:
            return value[key], depth[key]
        mover = role_to_move(state)
        counts[mover] += 1
        win_depths: list[int] = []
        loss_depths: list[int] = []
        for action in legal_actions(state):
            child, status = apply(state, action)
            if status.is_terminal:
                ckey = state_key(child)
                value.setdefault(ckey, status.winner)
                depth.setdefault(ckey, 0)
                w, d = status.winner, 0
            else:
                w, d = visit(child)
            (win_depths if w is mover else loss_depths).append(d)
        if win_depths:
            result = (mover, 1 + min(win_depths))
        else:
            result = (mover.opponent, 1 + max(loss_depths))
        value[key], depth[key] = result
        return result

    visit(root)
    # visit reaches itself through its closure; without this the cycle keeps
    # the tables alive after the caller drops them, until a full gc pass
    del visit
    return SolvedGame(
        root=root,
        value=value,
        depth=depth,
        reachable_shrinker=counts[Role.SHRINKER],
        reachable_amplifier=counts[Role.AMPLIFIER],
    )


def _child_outcome(solved: SolvedGame, child: GameState, status: TerminalStatus) -> tuple[Role, int]:
    if status.is_terminal:
        return status.winner, 0
    key = state_key(child)
    try:
        return solved.value[key], solved.depth[key]
    except KeyError:
        raise StateError(f"state {key!r} was never solved (unreachable from the root)")


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
        # prefer large depth.
        winner, d = _child_outcome(solved, *apply(state, action))
        return (1, -d) if winner is mover else (0, d)

    return argmax_by_code(state, score)


def random_win_table(
    root: GameState | None = None, exact: bool = False
) -> dict[str, float | Fraction]:
    """Shrinker win probability at every reachable state when both sides play uniformly."""
    root = root if root is not None else initial_state()
    one: float | Fraction = Fraction(1) if exact else 1.0
    zero: float | Fraction = Fraction(0) if exact else 0.0
    table: dict[str, float | Fraction] = {}

    def visit(state: GameState):
        key = state_key(state)
        if key in table:
            return table[key]
        total = zero
        actions = legal_actions(state)
        for action in actions:
            child, status = apply(state, action)
            if status.is_terminal:
                p = one if status.winner is Role.SHRINKER else zero
                table.setdefault(state_key(child), p)
            else:
                p = visit(child)
            total = total + p
        p_here = total / len(actions)
        table[key] = p_here
        return p_here

    status = status_of(root)
    if status.is_terminal:
        table[state_key(root)] = one if status.winner is Role.SHRINKER else zero
    else:
        visit(root)
    del visit  # break the closure cycle, as in solve
    return table


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
