import os
import random
import tempfile

import pytest

import flux.engine
import flux.solver
from flux.arena import GameRecord, _ply
from flux.engine import (
    Role,
    apply,
    legal_actions,
    role_to_move,
    state_from_key,
    status_of,
)
from flux.llm import ScriptedBackend, llm_agent_step
from flux.qlearn import TrainConfig, load_qtable, train
from flux.solver import default_solved, standard_graph


@pytest.fixture(scope="session")
def solved():
    return default_solved()


@pytest.fixture()
def graph_steps(monkeypatch):
    """A one-item list counting the graph's ``_step`` calls, from an empty graph cache."""
    calls = [0]

    def counting_step(cells, index, op):
        calls[0] += 1
        return flux.engine._step(cells, index, op)

    monkeypatch.setattr(flux.solver, "_step", counting_step)
    standard_graph.cache_clear()  # a cached graph would be read, not stepped
    yield calls
    standard_graph.cache_clear()


@pytest.fixture(scope="session")
def small_tables():
    """A quick training run, big enough to produce sane tables for smoke tests."""
    return train(TrainConfig(episodes=1500, seed=11))


@pytest.fixture(scope="session")
def make_scripted_record():
    """Build a transcript by driving both seats through the reply pipeline.

    Replies are consumed in order per seat; anything unparseable gets the
    usual random-substitution treatment, so annotations come out exactly as
    they would in a real model-vs-model game.
    """

    def build(start_key, p0_replies, p1_replies, seed, game_id=0):
        rng = random.Random(seed)
        state = state_from_key(start_key)
        backends = {
            Role.SHRINKER: ScriptedBackend(list(p0_replies)),
            Role.AMPLIFIER: ScriptedBackend(list(p1_replies)),
        }
        conversations = {Role.SHRINKER: [], Role.AMPLIFIER: []}
        plies = []
        while not status_of(state).is_terminal:
            role = role_to_move(state)
            action, annotation = llm_agent_step(
                backends[role], conversations[role], state, role, rng
            )
            ply, state = _ply(state, action, annotation)
            plies.append(ply)
        return GameRecord(game_id, seed, "scripted-s", "scripted-a", plies, status_of(state))

    return build


def random_playout(seed):
    """Play one uniformly random game and return the visited states."""
    rng = random.Random(seed)
    state = state_from_key("2,1,3,1,2|0")
    visited = [state]
    status = status_of(state)
    while not status.is_terminal:
        acts = legal_actions(state)
        state, status = apply(state, acts[rng.randrange(len(acts))])
        visited.append(state)
    return visited


def load_rows(role, rows, episodes=0, config_digest=""):
    """A ``QTable`` holding ``rows`` ({state key: {code: value}}), written as table text and read back by
    ``load_qtable``, the one way rows enter a table from outside, so every row meets the reader's checks."""
    lines = [f"#role={role.value}", f"#episodes={episodes}", f"#config_digest={config_digest}"]
    lines += [f"{key}\t" + ";".join(f"{code}={value!r}" for code, value in row.items()) for key, row in rows.items()]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "q.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        return load_qtable(path)
