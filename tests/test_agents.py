import hashlib
import random
from pathlib import Path

import pytest

from flux.agents import (
    GreedyQAgent,
    HeuristicAgent,
    RandomAgent,
    heuristic_amplifier,
    heuristic_shrinker,
    random_policy,
)
from flux.engine import (
    Action,
    GameState,
    Op,
    apply,
    encode_action,
    initial_state,
    legal_actions,
    role_to_move,
    state_key,
)
from flux.errors import StateError
from flux.qlearn import QTable, load_qtable
from flux.engine import Role
from flux.solver import reachable_states

from conftest import random_playout


# chi-square critical values at p = 0.01
CHI2_99_DF9 = 21.666
CHI2_99_DF3 = 11.345


def test_random_policy_is_uniform_over_ten_actions():
    rng = random.Random(123)
    state = initial_state()
    counts = [0] * 10
    for _ in range(10_000):
        counts[encode_action(random_policy(state, rng))] += 1
    chi2 = sum((c - 1000.0) ** 2 / 1000.0 for c in counts)
    assert chi2 < CHI2_99_DF9, f"chi2={chi2:.2f}, counts={counts}"


def test_random_policy_is_uniform_over_four_actions():
    rng = random.Random(7)
    state = GameState((4, 6), 1)
    counts = [0] * 4
    for _ in range(8_000):
        counts[encode_action(random_policy(state, rng))] += 1
    chi2 = sum((c - 2000.0) ** 2 / 2000.0 for c in counts)
    assert chi2 < CHI2_99_DF3, f"chi2={chi2:.2f}, counts={counts}"


def test_random_policy_only_returns_legal_moves():
    rng = random.Random(99)
    for seed in range(300):
        for state in random_playout(seed)[:-1]:
            action = random_policy(state, rng)
            assert 0 <= action.index < len(state.cells)


class TestShrinkerHeuristic:
    def test_prefers_removing_a_cell(self):
        # draining either 1 removes a cell (worth 10); the leftmost wins the tie
        assert heuristic_shrinker(initial_state()) == Action(1, Op.DRAIN)

    def test_plain_drain_beats_amplify(self):
        # no removal available: drains score 0, amplifies go negative
        assert heuristic_shrinker(GameState((4, 6), 2)) == Action(0, Op.DRAIN)

    def test_sum_growth_is_a_penalty(self):
        # amplifying 1 -> 2 costs 1; draining 5 -> 2 costs nothing
        choice = heuristic_shrinker(GameState((5, 1), 0))
        assert choice.op is Op.DRAIN

    def test_finished_game_raises(self):
        with pytest.raises(StateError):
            heuristic_shrinker(GameState((1,), 2))


class TestAmplifierHeuristic:
    def test_doubles_the_biggest_cell(self):
        # +3 from the middle cell beats +2 and +1 elsewhere
        assert heuristic_amplifier(GameState((2, 1, 3, 1, 2), 1)) == Action(2, Op.AMPLIFY)

    def test_tie_goes_to_the_lowest_code(self):
        assert heuristic_amplifier(GameState((5, 5), 1)) == Action(0, Op.AMPLIFY)

    def test_cell_removal_is_a_penalty(self):
        # draining the lone 1 away would hand the Shrinker progress: score -1 - 10
        choice = heuristic_amplifier(GameState((8, 1), 3))
        assert choice == Action(0, Op.AMPLIFY)


def test_heuristics_match_a_one_step_greedy_score_everywhere():
    # the oracle scores every legal move through the public apply: ten per
    # removed cell against the sum's growth (only growth counts against the
    # Shrinker), the first best in code order winning
    def greedy(state, shrinker):
        best = best_score = None
        for action in legal_actions(state):
            nxt, _ = apply(state, action)
            removed = len(state.cells) - len(nxt.cells)
            growth = nxt.total - state.total
            score = 10 * removed - max(0, growth) if shrinker else growth - 10 * removed
            if best_score is None or score > best_score:
                best, best_score = action, score
        return best

    live = reachable_states().ongoing
    assert len(live) == 8410
    for state in live:
        assert heuristic_shrinker(state) == greedy(state, True), state
        assert heuristic_amplifier(state) == greedy(state, False), state


class TestGreedyQ:
    FIXTURE = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / "q_amplifier.txt"
    # SHA-256 of "key\tcode\n" over every live state the fixture holds, in
    # key order; frozen before the agent's argmax moved onto QTable.best_code
    FIXTURE_MOVES_SHA256 = "a9b99c37c21f8fe200414e3e63195ba99f4834d58ad702c8bb59db028e379aa7"

    def make_table(self, key, row):
        q = QTable(role=Role.SHRINKER)
        q.entries[key] = row
        return q

    def choose(self, q, state, seed=0):
        agent = GreedyQAgent(q)
        return agent.choose(state, role_to_move(state), random.Random(seed)), agent

    def test_argmax_with_ties_takes_the_lowest_code(self):
        state = initial_state()
        q = self.make_table(state_key(state), {0: 0.5, 3: 0.5, 7: 0.2})
        action, agent = self.choose(q, state)
        assert encode_action(action) == 0
        assert agent.last_annotation is None

    def test_missing_codes_read_as_zero(self):
        state = initial_state()
        q = self.make_table(state_key(state), {5: -0.3})
        action, _ = self.choose(q, state)
        # every unseen action counts 0.0, which beats the only stored entry
        assert encode_action(action) == 0

    def test_unseen_state_falls_back_to_random(self):
        state = initial_state()
        q = QTable(role=Role.SHRINKER)
        fallbacks = 0
        seen = set()
        for i in range(200):
            action, agent = self.choose(q, state, seed=i)
            fallbacks += agent.last_annotation == {"fallback": True}
            seen.add(encode_action(action))
            assert 0 <= action.index < 5
        assert fallbacks == 200
        assert len(seen) > 1  # really random, not a fixed default
        assert q.entries == {}  # the lookup must not create rows

    def test_agent_annotates_fallbacks(self):
        state = initial_state()
        agent = GreedyQAgent(QTable(role=Role.SHRINKER))
        agent.choose(state, Role.SHRINKER, random.Random(4))
        assert agent.last_annotation == {"fallback": True}

    def test_moves_on_the_fixture_are_frozen(self):
        q = load_qtable(str(self.FIXTURE))
        live = sorted(reachable_states().ongoing, key=state_key)
        present = [s for s in live if state_key(s) in q.entries]
        assert len(present) == 2438
        digest = hashlib.sha256()
        for state in present:
            action, agent = self.choose(q, state)
            assert agent.last_annotation is None
            digest.update(f"{state_key(state)}\t{encode_action(action)}\n".encode())
        assert digest.hexdigest() == self.FIXTURE_MOVES_SHA256


def test_agent_wrappers_have_names():
    assert RandomAgent().name == "random"
    assert "heuristic" in HeuristicAgent().name
