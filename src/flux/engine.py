"""Rules engine for Flux.

Flux is played on a row of integer cells, initially [2, 1, 3, 1, 2].  Two
players alternate: the Shrinker (player 0, moves first) tries to cut the row
down to a single cell, the Amplifier (player 1) tries to push the running sum
past 20.  Each move picks one cell and either doubles it (AMPLIFY) or halves
it rounding down (DRAIN); a cell that hits zero is deleted and the row closes
up.  If neither side has won by the end of move 15, the Shrinker wins when
fewer than three cells remain, otherwise the Amplifier does.

Everything in this module is a pure function of the state; there is no hidden
engine object and no randomness.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import cache
from typing import NamedTuple

from .errors import StateError

INITIAL_CELLS = (2, 1, 3, 1, 2)
SUM_LIMIT = 20
MAX_PLIES = 15
TIEBREAK_MIN_CELLS = 3
_NUMBER = "(?:0|[1-9][0-9]*)"  # in a state key: ASCII digits, no sign, no leading zero
_CANONICAL_KEY = re.compile(rf"{_NUMBER}(?:,{_NUMBER})*\|{_NUMBER}")  # what state_key writes


class Role(Enum):
    SHRINKER = "shrinker"
    AMPLIFIER = "amplifier"

    @property
    def player_index(self) -> int:
        return 0 if self is _SHRINKER else 1

    @property
    def opponent(self) -> "Role":
        return _AMPLIFIER if self is _SHRINKER else _SHRINKER


class Op(Enum):
    AMPLIFY = "amplify"
    DRAIN = "drain"


# the ply loops load these through module names: Role.X or Op.X is a slow
# load on 3.11, whose EnumType defines __getattr__
_SHRINKER, _AMPLIFIER = Role.SHRINKER, Role.AMPLIFIER
_ROLES = (_SHRINKER, _AMPLIFIER)  # by player_index
_AMPLIFY, _DRAIN = Op.AMPLIFY, Op.DRAIN
_OPS = (_AMPLIFY, _DRAIN)  # by action code % 2


class Reason(Enum):
    SINGLE_CELL = "single_cell"
    SUM_EXCEEDED_20 = "sum_exceeded_20"
    TIEBREAK_FEWER_THAN_3 = "tiebreak_fewer_than_3"
    TIEBREAK_AT_LEAST_3 = "tiebreak_at_least_3"


class TerminalStatus(Enum):
    """The five outcome markers the rules produce: ``ONGOING`` and the four endings.

    Each value is the marker's label, ``ongoing`` or ``<winner>:<reason>``, so
    ``TerminalStatus(label)`` reads a label back and raises ``ValueError`` for
    any other text.
    """

    ONGOING = "ongoing"
    SUM_EXCEEDED_20 = "amplifier:sum_exceeded_20"
    SINGLE_CELL = "shrinker:single_cell"
    TIEBREAK_FEWER_THAN_3 = "shrinker:tiebreak_fewer_than_3"
    TIEBREAK_AT_LEAST_3 = "amplifier:tiebreak_at_least_3"

    def __init__(self, label: str) -> None:
        winner, _, reason = label.partition(":")
        self.label = label
        self.winner: Role | None = Role(winner) if reason else None
        self.reason: Reason | None = Reason(reason) if reason else None
        self.is_terminal = self.winner is not None


# status_of hands out these aliases, loaded through module names as Role's are
ONGOING, _SUM_EXCEEDED, _SINGLE_CELL = TerminalStatus.ONGOING, TerminalStatus.SUM_EXCEEDED_20, TerminalStatus.SINGLE_CELL
_TIEBREAK_FEW, _TIEBREAK_MANY = TerminalStatus.TIEBREAK_FEWER_THAN_3, TerminalStatus.TIEBREAK_AT_LEAST_3


class GameState(NamedTuple):
    """A position: the row of cells and how many moves have been played.

    ``cells`` must be a tuple of ints; the engine stores it as given and does
    no conversion.  Outside data is converted and checked where it is read:
    ``state_from_key`` is strict, taking only the text ``state_key`` writes,
    and ``arena.read_transcripts`` rejects transcript cells that are not
    plain ints.
    """

    cells: tuple[int, ...]
    moves_played: int = 0

    @property
    def total(self) -> int:
        return sum(self.cells)


class Action(NamedTuple):
    index: int
    op: Op

    @property
    def text(self) -> str:
        """Canonical reply form, e.g. ``DRAIN 1``."""
        return f"{self.op.name} {self.index}"


def initial_state() -> GameState:
    return GameState(INITIAL_CELLS, 0)


def status_of(state: GameState) -> TerminalStatus:
    """Classify a state.  Checks are ordered: sum cap, then row length, then tiebreak."""
    cells = state.cells
    if sum(cells) > SUM_LIMIT:
        return _SUM_EXCEEDED
    n = len(cells)
    if n <= 1:
        return _SINGLE_CELL
    if state.moves_played >= MAX_PLIES:
        return _TIEBREAK_FEW if n < TIEBREAK_MIN_CELLS else _TIEBREAK_MANY
    return ONGOING


def _seat_to_move(moves_played: int) -> int:
    """The mover's ``player_index``, unchecked: the shrinker moves first, then turns alternate."""
    return moves_played % 2


def role_to_move(state: GameState) -> Role:
    if status_of(state) is not ONGOING:
        raise StateError(f"game over in state {state_key(state)!r}; nobody moves")
    return _ROLES[_seat_to_move(state.moves_played)]


@cache  # rows never grow, so play fills one entry per length up to len(INITIAL_CELLS)
def _row_actions(row_len: int) -> tuple[Action, ...]:
    """Every action on a row of ``row_len`` cells, indexed by encoded code."""
    return tuple(Action(i, op) for i in range(row_len) for op in _OPS)


def legal_actions(state: GameState) -> list[Action]:
    """Both operations on every cell, in ascending encoded order.

    The list is a fresh copy, so callers may change it freely.
    """
    if status_of(state) is not ONGOING:
        raise StateError(f"game over in state {state_key(state)!r}; no legal actions")
    return list(_row_actions(len(state.cells)))


def _step(cells: tuple[int, ...], index: int, op: Op) -> tuple[int, ...]:
    """The move rule, unchecked: the caller vouches the game is live and ``index`` valid."""
    value = cells[index] * 2 if op is _AMPLIFY else cells[index] // 2
    # a cell drained to zero is deleted and the row closes up
    return cells[:index] + ((value,) if value else ()) + cells[index + 1 :]


def apply(state: GameState, action: Action) -> tuple[GameState, TerminalStatus]:
    """Apply one move and return (next state, status of the next state).

    Every check is made here; the move itself is ``_step``, the rule's one copy.
    """
    if status_of(state) is not ONGOING:
        raise StateError(f"cannot move in finished state {state_key(state)!r}")
    cells, index = state.cells, action.index
    if not 0 <= index < len(cells):
        raise IndexError(f"cell index {index} out of range for a row of {len(cells)}")
    nxt = GameState(_step(cells, index, action.op), state.moves_played + 1)
    return nxt, status_of(nxt)


def state_key(state: GameState) -> str:
    """Stable text key: comma-joined cells, a pipe, then the move count."""
    return _key_prefix(state.cells) + str(state.moves_played)


def _key_prefix(cells: tuple[int, ...]) -> str:  # a state key up to its move count
    return ",".join(map(str, cells)) + "|"


def state_from_key(key: str) -> GameState:
    """The state whose ``state_key`` is ``key``; any text ``state_key`` never writes is a ``ValueError``."""
    if not _CANONICAL_KEY.fullmatch(key):
        raise ValueError(f"non-canonical state key {key!r}")
    cells_part, _, moves_part = key.partition("|")
    return GameState(tuple(map(int, cells_part.split(","))), int(moves_part))


def encode_action(action: Action) -> int:
    return 2 * action.index + (1 if action.op is _DRAIN else 0)


def decode_action(code: int, row_len: int) -> Action:
    if not 0 <= code < 2 * row_len:
        raise ValueError(f"action code {code} out of range for a row of {row_len}")
    return _row_actions(row_len)[code]
