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
    Action,
    GameState,
    Role,
    apply,
    decode_action,
    legal_actions,
    state_key,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .qlearn import QTable

RandomSource = random.Random

# How strongly the greedy heuristics value a change in row length versus a
# change in sum.  One removed cell outweighs any single-move sum swing.
LENGTH_WEIGHT = 10


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


def argmax_by_code(state: GameState, score) -> Action:
    """Max of ``score(action)`` over legal actions; ties go to the lowest code."""
    best_action = None
    best_score = None
    for action in legal_actions(state):  # already in ascending encoded order
        s = score(action)
        if best_score is None or s > best_score:
            best_score = s
            best_action = action
    return best_action


def heuristic_shrinker(state: GameState) -> Action:
    """Prefer moves that delete cells; penalise any sum growth."""

    def score(action: Action) -> int:
        nxt, _ = apply(state, action)
        removed = len(state.cells) - len(nxt.cells)
        growth = nxt.total - state.total
        return LENGTH_WEIGHT * removed - max(0, growth)

    return argmax_by_code(state, score)


def heuristic_amplifier(state: GameState) -> Action:
    """Prefer moves that grow the sum; penalise losing cells."""

    def score(action: Action) -> int:
        nxt, _ = apply(state, action)
        removed = len(state.cells) - len(nxt.cells)
        growth = nxt.total - state.total
        return growth - LENGTH_WEIGHT * removed

    return argmax_by_code(state, score)


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
        self.qtable = qtable

    def choose(self, state, role, rng):
        key = state_key(state)
        if key not in self.qtable.entries:
            self.last_annotation = {"fallback": True}
            return random_policy(state, rng)
        self.last_annotation = None
        n = len(state.cells)
        return decode_action(self.qtable.best_code(key, 2 * n), n)
