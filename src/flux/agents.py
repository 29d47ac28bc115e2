"""Baseline agents as seats: uniform random, one-step greedy heuristics, and greedy Q-table play.

A seat is an agent that is a function of the position: ``code(cells, moves)`` is the action code
it plays on a live row, or ``None`` for a uniformly random move.  ``Seat.choose`` plays any seat,
and ``draw`` is the one place a move is sampled: one ``rng.randrange`` over the row's codes, only
for ``None``.  Training plays its non-learning seat through the same two functions.  All
randomness flows through an explicit ``random.Random`` so games replay bit-for-bit from a seed.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from .engine import ONGOING, Action, GameState, Role, _seat_to_move, decode_action, state_key, status_of
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


def draw(code: int | None, n_codes: int, rng: RandomSource) -> int:
    """The code a seat plays: ``code``, or for ``None`` one uniform draw over the row's ``n_codes`` codes.

    Every (cell, op) pair is legal, so the draw is uniform over ``legal_actions`` without building it.
    """
    return rng.randrange(n_codes) if code is None else code


class Seat(AgentPolicy):
    """An agent that is a function of the position, played through ``code``."""

    def code(self, cells: tuple[int, ...], moves: int) -> int | None:
        """The code to play on the live row ``cells`` after ``moves`` moves, or ``None`` for a uniform move."""
        raise NotImplementedError

    def choose(self, state, role, rng):
        cells = state.cells
        if status_of(state) is not ONGOING:
            raise StateError(f"game over in state {state_key(state)!r}; no legal actions")
        return decode_action(draw(self.code(cells, state.moves_played), 2 * len(cells), rng), len(cells))


def heuristic_shrinker(cells: tuple[int, ...]) -> int:
    """Prefer moves that delete cells; penalise any sum growth.

    One step of greedy search, scored ten per removed cell minus any sum
    growth, ties to the lowest code.  Only draining a 1 removes a cell and no
    drain grows the sum, so this drains the first cell holding 1, else cell 0.
    """
    return 2 * cells.index(1) + 1 if 1 in cells else 1


def heuristic_amplifier(cells: tuple[int, ...]) -> int:
    """Prefer moves that grow the sum; penalise losing cells.

    One step of greedy search, scored by sum growth minus ten per removed
    cell, ties to the lowest code.  Doubling a cell grows the sum by its value
    and no drain grows it, so this doubles the first largest cell.
    """
    return 2 * cells.index(max(cells))


class RandomAgent(Seat):
    name = "random"

    def code(self, cells, moves):
        return None


class HeuristicAgent(Seat):
    name = "heuristic"

    def code(self, cells, moves):
        return heuristic_amplifier(cells) if _seat_to_move(moves) else heuristic_shrinker(cells)


class GreedyQAgent(Seat):
    """Plays the argmax of a trained Q-table; unseen states fall back to random.

    A fallback is annotated ``{"fallback": True}``; the arena counts them from
    the transcript annotations.  The lookup never creates a row.
    """

    name = "rl"

    def __init__(self, qtable: "QTable") -> None:
        super().__init__()
        from .solver import standard_graph  # the solver imports this module
        self.qtable, self._graph = qtable, standard_graph()

    def code(self, cells, moves):
        n = self._graph.number(self._graph.position(cells, moves))
        held = n >= 0 and self.qtable._index[n] >= 0
        self.last_annotation = None if held else {"fallback": True}
        return self.qtable.best_code(n, 2 * len(cells)) if held else None
