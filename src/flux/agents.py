"""Baseline policies: uniform random, one-step greedy heuristics, and greedy Q-table play.

Policies are picked per game through :class:`AgentPolicy` objects; the bare
functions underneath are pure and reusable (training uses them directly).
All randomness flows through an explicit ``random.Random`` so games replay
bit-for-bit from a seed.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from .engine import (
    _AMPLIFY,
    _DRAIN,
    ONGOING,
    Action,
    GameState,
    Role,
    decode_action,
    state_key,
    status_of,
)
from .errors import StateError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .qlearn import QTable

RandomSource = random.Random


class AgentPolicy:
    """Base class for per-game agents.

    ``choose`` must return a legal action.  Agents may leave a dict in
    ``last_annotation`` describing how the move came about (raw LLM reply,
    fallback flags, ...); the arena copies it into the transcript.
    """

    name = "agent"

    def __init__(self) -> None:
        self.last_annotation: dict | None = None

    def choose(self, state: GameState, role: Role, rng: RandomSource) -> Action:
        raise NotImplementedError


def random_policy(state: GameState, rng: RandomSource) -> Action:
    # Every (cell, op) pair is legal, so a single draw over codes is uniform
    # over legal_actions without building the list.
    return decode_action(rng.randrange(2 * len(state.cells)), len(state.cells))


def _live_row(state: GameState) -> tuple[int, ...]:
    if status_of(state) is not ONGOING:
        raise StateError(f"game over in state {state_key(state)!r}; no legal actions")
    return state.cells


def heuristic_shrinker(state: GameState) -> Action:
    """Prefer moves that delete cells; penalise any sum growth.

    One step of greedy search, scored ten per removed cell minus any sum
    growth, ties to the lowest code.  Only draining a 1 removes a cell and no
    drain grows the sum, so this drains the first cell holding 1, else cell 0.
    """
    cells = _live_row(state)
    return Action(cells.index(1) if 1 in cells else 0, _DRAIN)


def heuristic_amplifier(state: GameState) -> Action:
    """Prefer moves that grow the sum; penalise losing cells.

    One step of greedy search, scored by sum growth minus ten per removed
    cell, ties to the lowest code.  Doubling a cell grows the sum by its value
    and no drain grows it, so this doubles the first largest cell.
    """
    cells = _live_row(state)
    return Action(cells.index(max(cells)), _AMPLIFY)


class RandomAgent(AgentPolicy):
    name = "random"

    def choose(self, state, role, rng):
        return random_policy(state, rng)


class HeuristicAgent(AgentPolicy):
    name = "heuristic"

    def choose(self, state, role, rng):
        if role is Role.SHRINKER:
            return heuristic_shrinker(state)
        return heuristic_amplifier(state)


class GreedyQAgent(AgentPolicy):
    """Plays the argmax of a trained Q-table; unseen states fall back to random.

    A fallback is annotated ``{"fallback": True}``; the arena counts them from
    the transcript annotations.  The lookup never creates a row.
    """

    name = "rl"

    def __init__(self, qtable: "QTable") -> None:
        super().__init__()
        from .qlearn import live_states  # qlearn imports this module
        self.qtable, self._live = qtable, live_states()

    def choose(self, state, role, rng):
        n, k = self._live.find(state.cells, state.moves_played), len(state.cells)
        if n < 0 or self.qtable._index[n] < 0:
            self.last_annotation = {"fallback": True}
            return random_policy(state, rng)
        self.last_annotation = None
        return decode_action(self.qtable.best_code(n, 2 * k), k)
