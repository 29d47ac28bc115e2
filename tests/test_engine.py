"""Rules-engine tests: every case here is worked out by hand from the rules."""

import hashlib

import pytest

from flux.engine import (
    INITIAL_CELLS,
    MAX_PLIES,
    ONGOING,
    SUM_LIMIT,
    Action,
    GameState,
    Op,
    Reason,
    Role,
    TerminalStatus,
    apply,
    decode_action,
    encode_action,
    initial_state,
    legal_actions,
    role_to_move,
    state_from_key,
    state_key,
    status_of,
)
from flux.errors import StateError
from flux.solver import reachable_states

from conftest import random_playout


def test_opening_position():
    state = initial_state()
    assert state.cells == (2, 1, 3, 1, 2)
    assert state.moves_played == 0
    assert state.total == 9
    assert state_key(state) == "2,1,3,1,2|0"
    assert status_of(state) is ONGOING
    assert role_to_move(state) is Role.SHRINKER


def test_constants():
    assert INITIAL_CELLS == (2, 1, 3, 1, 2)
    assert SUM_LIMIT == 20
    assert MAX_PLIES == 15


class TestStatus:
    def test_sum_win(self):
        status = status_of(GameState((12, 5, 6), 7))
        assert status.is_terminal
        assert status.winner is Role.AMPLIFIER
        assert status.reason is Reason.SUM_EXCEEDED_20

    def test_single_cell_win(self):
        status = status_of(GameState((7,), 4))
        assert status.winner is Role.SHRINKER
        assert status.reason is Reason.SINGLE_CELL

    def test_empty_row_counts_as_single_cell(self):
        status = status_of(GameState((), 6))
        assert status.winner is Role.SHRINKER
        assert status.reason is Reason.SINGLE_CELL

    def test_sum_beats_single_cell(self):
        # precedence: the sum rule is checked before the row-length rule
        status = status_of(GameState((22,), 5))
        assert status.winner is Role.AMPLIFIER
        assert status.reason is Reason.SUM_EXCEEDED_20

    def test_tiebreak_few_cells(self):
        status = status_of(GameState((4, 2), 15))
        assert status.winner is Role.SHRINKER
        assert status.reason is Reason.TIEBREAK_FEWER_THAN_3

    def test_tiebreak_many_cells(self):
        status = status_of(GameState((4, 2, 1), 15))
        assert status.winner is Role.AMPLIFIER
        assert status.reason is Reason.TIEBREAK_AT_LEAST_3

    def test_sum_beats_tiebreak(self):
        status = status_of(GameState((21, 1), 15))
        assert status.reason is Reason.SUM_EXCEEDED_20

    def test_exactly_20_is_not_a_win(self):
        assert status_of(GameState((10, 5, 5), 4)) is ONGOING

    def test_move_14_is_still_live(self):
        assert status_of(GameState((4, 2, 1), 14)) is ONGOING

    def test_label_round_trip(self):
        for status in (
            TerminalStatus.SINGLE_CELL,
            TerminalStatus.SUM_EXCEEDED_20,
            TerminalStatus.TIEBREAK_FEWER_THAN_3,
            TerminalStatus.TIEBREAK_AT_LEAST_3,
            ONGOING,
        ):
            assert TerminalStatus(status.label) is status

    def test_labels_read_back_as_the_shared_values(self):
        # the four terminal values status_of returns, plus ONGOING
        for state in (
            GameState((22,), 5),
            GameState((4,), 6),
            GameState((4, 2), 15),
            GameState((4, 2, 1), 15),
            GameState((2, 1, 3, 1, 2), 0),
        ):
            s = status_of(state)
            assert TerminalStatus(s.label) is s
        # a well-formed pair no rule produces is not a status
        with pytest.raises(ValueError):
            TerminalStatus("shrinker:sum_exceeded_20")


class TestApply:
    def test_amplify_doubles(self):
        nxt, status = apply(GameState((2, 1, 3, 1, 2), 0), Action(2, Op.AMPLIFY))
        assert nxt.cells == (2, 1, 6, 1, 2)
        assert nxt.moves_played == 1
        assert status is ONGOING

    def test_drain_halves_rounding_down(self):
        nxt, _ = apply(GameState((2, 1, 3, 1, 2), 0), Action(2, Op.DRAIN))
        assert nxt.cells == (2, 1, 1, 1, 2)

    def test_drain_to_zero_removes_the_cell(self):
        nxt, _ = apply(GameState((2, 1, 3, 1, 2), 0), Action(1, Op.DRAIN))
        assert nxt.cells == (2, 3, 1, 2)
        assert len(nxt.cells) == 4

    def test_amplify_can_end_the_game(self):
        # 12 doubles to 24; the row then sums to 27, past the limit of 20
        nxt, status = apply(GameState((12, 1, 2), 5), Action(0, Op.AMPLIFY))
        assert nxt.cells == (24, 1, 2)
        assert nxt.total == 27
        assert status.winner is Role.AMPLIFIER
        assert status.reason is Reason.SUM_EXCEEDED_20

    def test_drain_last_cells_to_one(self):
        nxt, status = apply(GameState((1, 4), 8), Action(0, Op.DRAIN))
        assert nxt.cells == (4,)
        assert status.winner is Role.SHRINKER
        assert status.reason is Reason.SINGLE_CELL

    def test_fifteenth_move_triggers_the_tiebreak(self):
        nxt, status = apply(GameState((2, 2, 1, 1), 14), Action(3, Op.DRAIN))
        assert nxt.moves_played == 15
        assert status.reason is Reason.TIEBREAK_AT_LEAST_3

    def test_apply_on_a_finished_game_raises(self):
        with pytest.raises(StateError):
            apply(GameState((7,), 3), Action(0, Op.DRAIN))

    def test_bad_index_raises(self):
        with pytest.raises(IndexError):
            apply(initial_state(), Action(5, Op.AMPLIFY))


def test_legal_actions_are_every_op_on_every_cell():
    acts = legal_actions(initial_state())
    assert len(acts) == 10
    assert [encode_action(a) for a in acts] == list(range(10))
    assert acts[0] == Action(0, Op.AMPLIFY)
    assert acts[1] == Action(0, Op.DRAIN)
    assert acts[-1] == Action(4, Op.DRAIN)


def test_legal_actions_on_a_finished_game_raises():
    with pytest.raises(StateError):
        legal_actions(GameState((30,), 2))


def test_losing_moves_stay_legal():
    # nothing stops the Shrinker from amplifying itself past the sum limit
    state = GameState((12, 1, 2), 4)
    assert role_to_move(state) is Role.SHRINKER
    assert Action(0, Op.AMPLIFY) in legal_actions(state)


def test_roles_alternate_with_parity():
    assert role_to_move(GameState((2, 2), 6)) is Role.SHRINKER
    assert role_to_move(GameState((2, 2), 7)) is Role.AMPLIFIER
    assert Role.SHRINKER.player_index == 0
    assert Role.AMPLIFIER.player_index == 1
    assert Role.SHRINKER.opponent is Role.AMPLIFIER


def test_role_to_move_on_a_finished_game_raises():
    with pytest.raises(StateError):
        role_to_move(GameState((9,), 11))


def test_action_codes():
    assert encode_action(Action(0, Op.AMPLIFY)) == 0
    assert encode_action(Action(0, Op.DRAIN)) == 1
    assert encode_action(Action(3, Op.AMPLIFY)) == 6
    assert encode_action(Action(3, Op.DRAIN)) == 7
    for n in range(1, 7):
        for code in range(2 * n):
            assert encode_action(decode_action(code, n)) == code
    with pytest.raises(ValueError):
        decode_action(10, 5)
    with pytest.raises(ValueError):
        decode_action(-1, 5)


def test_decoded_actions_are_the_legal_actions_in_code_order():
    for n in range(1, 6):
        # a single cell ends the game, so its two actions are spelled out
        expected = legal_actions(GameState((2,) * n)) if n > 1 else [Action(0, Op.AMPLIFY), Action(0, Op.DRAIN)]
        assert [decode_action(code, n) for code in range(2 * n)] == expected


def test_action_text():
    assert Action(1, Op.DRAIN).text == "DRAIN 1"
    assert Action(4, Op.AMPLIFY).text == "AMPLIFY 4"


def test_state_key_round_trip():
    for key in ("2,1,3,1,2|0", "24,1,2|6", "7|3", "4,2|15"):
        assert state_key(state_from_key(key)) == key


def test_every_reachable_state_round_trips_through_its_key():
    reach = reachable_states()
    states = [*reach.ongoing, *(s for s, _ in reach.terminal)]
    assert len(states) == 16613
    for state in states:
        assert state_from_key(state_key(state)) == state
    for _, status in reach.terminal:
        assert TerminalStatus(status.label) is status


@pytest.mark.parametrize(
    "key",
    ["02,1|0", "2,01|0", "2,1|00", "+2,1|0", "-2,1|0", " 2,1|0", "2,1|0\n", "2,,1|0", "|0", "2,1|", "2,1",
     "2_0,1|0", "\u0663,1|0", "2,1|0|0", ""],
)
def test_state_from_key_takes_only_canonical_keys(key):
    # int() reads several of these, but state_key writes none of them
    with pytest.raises(ValueError, match="non-canonical state key"):
        state_from_key(key)


def test_random_playouts_stay_consistent():
    for seed in range(200):
        visited = random_playout(seed)
        assert visited[0].cells == INITIAL_CELLS
        for i, state in enumerate(visited):
            assert state.moves_played == i
            assert all(v > 0 for v in state.cells)
        for state in visited[:-1]:
            assert status_of(state) is ONGOING
        last = status_of(visited[-1])
        assert last.is_terminal
        # every game ends by move 15 at the latest
        assert visited[-1].moves_played <= MAX_PLIES


# SHA-256 over one line per (live state, legal action) pair, live states sorted
# by key: "<state key> <action code> <child key> <child status label>".  Frozen
# from the engine as it was before legal_actions shared its Action objects and
# GameState stopped converting its cells; criterion 1 of the acceptance gate
# re-derives the rules independently of this reference.
ENGINE_DIGEST = "d0aef7e3861023a458cd043a683fe475168b931ae5a5b98d1ae075dedf2808f3"


def test_every_transition_matches_the_frozen_reference():
    live = sorted(reachable_states(initial_state()).ongoing, key=state_key)
    digest = hashlib.sha256()
    pairs = 0
    for state in live:
        for action in legal_actions(state):
            child, status = apply(state, action)
            line = f"{state_key(state)} {encode_action(action)} {state_key(child)} {status.label}\n"
            digest.update(line.encode())
            pairs += 1
    assert (len(live), pairs) == (8410, 74108)
    assert digest.hexdigest() == ENGINE_DIGEST


def test_changing_a_returned_action_list_leaves_the_next_one_intact():
    state = initial_state()
    first = legal_actions(state)
    first.reverse()
    first.pop()
    first.append(Action(0, Op.DRAIN))
    again = legal_actions(state)
    assert again is not first
    assert [encode_action(a) for a in again] == list(range(10))
    # a shorter row of the same game is not affected either
    assert [encode_action(a) for a in legal_actions(GameState((4, 2), 3))] == [0, 1, 2, 3]
