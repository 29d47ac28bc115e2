"""Exact solver: one row graph per root, evaluated backwards from its leaves.

A state's children depend only on its row, and so does its status below the
ply limit: the 16,613 states of the standard game hold 3,333 distinct rows,
each live row is stepped once, through the unchecked step ``apply`` shares,
and ``status_of`` runs once per row and once per state at the limit.
``game_graph`` builds a root's ``GameGraph``, one layer of rows per move count,
and keeps the last one; every exact question reads it and none changes it.  It
is the one index of the root's states: a state's position (move count and row
id), the numbers of the live ones, and every state key, written and found.
``reachable_states`` keeps arrays of positions and builds a ``GameState`` only
when one is read.  A backward pass (retrograde analysis) gives each state one
signed score, read as the winner under best play and ``depth``, the plies to
the end when the winner hurries and the loser stalls; ``SolvedGame`` keeps the
scores, one byte per row and layer.  The same pass, with the mean of the
children in place of the mover's best, gives the Shrinker's win probability
under uniform random play, by layer and row id too: floats, NaN where a layer
lacks a row, or integers over one common denominator that a read turns into a
``Fraction``.  The string-keyed tables, ``value``, ``depth`` and
``random_win_table``, are read-only views over those values that find each key
on the graph; ``export_solved`` writes from the scores.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import chain, islice
from operator import add
from typing import TYPE_CHECKING

from .agents import Seat
from .engine import (
    _AMPLIFIER,
    _ROLES,
    _SHRINKER,
    MAX_PLIES,
    ONGOING,
    Action,
    GameState,
    Role,
    TerminalStatus,
    _row_actions,
    _seat_to_move,
    _step,
    initial_state,
    state_key,
    status_of,
)
from .errors import StateError

if TYPE_CHECKING:
    from collections.abc import Callable, Iterator
    from fractions import Fraction

_Layer = tuple[list[int], list[TerminalStatus]]  # row ids at one move count, their statuses
_ENDS = tuple(TerminalStatus)  # a finished state's status in Reachable, by its index here


@dataclass(repr=False)
class GameGraph:
    """The row graph from ``root``, and the one index of its states and keys.  Read it; never change it.

    ``ids`` maps each row's cells to its row id, in order of discovery; ``rows`` lists the cells by id.
    ``kids[i]`` lists row ``i``'s children, one per legal action in encoded-action order, stepped once,
    the first time the row is live.  Layer ``d`` is ``(ids, statuses)``: the distinct rows at move count
    ``root.moves_played + d`` in order of discovery, the children of the live rows above, and each state's
    status.  ``prefixes[i]`` is row ``i``'s key up to its move count.  A state's position is
    ``moves * width + row``; ``live`` holds the live states' positions ascending, and a number indexes it.
    """

    root: GameState
    ids: dict[tuple[int, ...], int]
    rows: list[tuple[int, ...]]
    kids: dict[int, list[int]]
    layers: list[_Layer]
    prefixes: list[str]
    width: int  # the number of rows
    live: array

    def position(self, cells: tuple[int, ...], moves: int) -> int:
        """The position of ``GameState(cells, moves)``, or -1 if its row or move count is off the graph."""
        row = self.ids.get(cells)
        on = row is not None and 0 <= moves - self.root.moves_played < len(self.layers)
        return moves * self.width + row if on else -1

    def number(self, pos: int) -> int:
        """The number of the live state at position ``pos``, or -1 if no live state is there."""
        n = bisect_left(self.live, pos)
        return n if n < len(self.live) and self.live[n] == pos else -1

    def key(self, pos: int) -> str:
        """The ``state_key`` of the state at position ``pos``."""
        moves, row = divmod(pos, self.width)
        return self.prefixes[row] + str(moves)

    def find(self, key: object) -> int:
        """The position whose key is ``key``, or -1: any text but the key this graph writes misses."""
        try:
            cells, _, moves = key.partition("|")
            pos = self.position(tuple(map(int, cells.split(","))), int(moves))
        except (AttributeError, TypeError, ValueError):  # not a string, or not numbers
            return -1
        return pos if pos >= 0 and self.key(pos) == key else -1  # int() also reads " 1", "+1", "1_0" and "-0"

    def at(self, values: list, pos: int) -> object:
        """``values``' entry for position ``pos``, by layer from the root and row id; None for -1 or past a layer."""
        moves, row = divmod(pos, self.width)
        layer = values[moves - self.root.moves_played] if pos >= 0 else ()
        return layer[row] if row < len(layer) else None


@lru_cache(maxsize=1)
def game_graph(root: GameState) -> GameGraph:
    """The ``GameGraph`` from ``root``, built once and kept until another root's is asked for."""
    ids, rows = {root.cells: 0}, []  # cells -> row id in order of discovery, and row id -> cells
    kids: dict[int, list[int]] = {}
    row_statuses: list[TerminalStatus] = []
    layers: list[_Layer] = []
    layer, moves = [0], root.moves_played
    while layer:
        rows += islice(ids, len(rows), None)  # the rows found since the last layer
        row_statuses += [status_of(GameState(row, 0)) for row in rows[len(row_statuses):]]
        if moves < MAX_PLIES:  # status_of tests the move count last, after the sum and the length
            statuses = [row_statuses[i] for i in layer]
        else:
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
    # a row's key prefix comes from state_key once; each state appends its move count
    prefixes = [state_key(GameState(row, 0))[:-1] for row in rows]
    positions = array("I")  # layers run by move count, so sorting each layer's live positions sorts them all
    for moves, (layer, statuses) in enumerate(layers, root.moves_played):
        positions.extend(sorted(moves * len(rows) + i for i, status in zip(layer, statuses) if status is ONGOING))
    return GameGraph(root, ids, rows, kids, layers, prefixes, len(rows), positions)


class _States(Sequence):
    """Read-only states at positions ``moves * width + row``, each built when read; with ``ends``, status pairs."""

    def __init__(self, rows: list[tuple[int, ...]], width: int, at: array, ends: array | None = None) -> None:
        self._rows, self._width, self._at, self._ends = rows, width, at, ends

    def __len__(self) -> int:
        return len(self._at)

    def __getitem__(self, n: int) -> GameState | tuple[GameState, TerminalStatus]:
        moves, row = divmod(self._at[n], self._width)  # the array raises IndexError past either end
        state = GameState(self._rows[row], moves)
        return state if self._ends is None else (state, _ENDS[self._ends[n]])


class Reachable:
    """Every state legal moves reach from a root; it keeps the parts of the root's graph it reads."""

    def __init__(self, root: GameState) -> None:
        graph = game_graph(root)
        rows, width, layers, live, done = graph.rows, graph.width, graph.layers, array("I"), array("I")
        for moves, (layer, statuses) in enumerate(layers, root.moves_played):
            for i, status in zip(layer, statuses):
                (live if status is ONGOING else done).append(moves * width + i)
        ends = array("B", (_ENDS.index(s) for _, statuses in layers for s in statuses if s is not ONGOING))
        self.ongoing, self.terminal = _States(rows, width, live), _States(rows, width, done, ends)
        self._prefixes = graph.prefixes

    def ongoing_keys(self, role: Role | None = None) -> frozenset[str]:
        spots = (divmod(pos, self.ongoing._width) for pos in self.ongoing._at)
        return frozenset(self._prefixes[row] + str(moves) for moves, row in spots
                          if role is None or _ROLES[_seat_to_move(moves)] is role)


def reachable_states(root: GameState | None = None) -> Reachable:
    """Breadth-first closure; children are discovered in encoded-action order."""
    return Reachable(root if root is not None else initial_state())


@dataclass
class SolvedGame:
    root: GameState
    graph: GameGraph = field(repr=False, compare=False)  # game_graph(root), which the scores index
    # scores[d][i]: row i's score at move count root.moves_played + d, or 0 if no such
    # state is reachable; horizon - depth if the Shrinker wins, depth - horizon if not
    scores: list[array]
    reachable_shrinker: int  # ongoing states with the Shrinker to move
    reachable_amplifier: int

    def winner(self, state: GameState) -> Role | None:
        """The winner under optimal play, or None if ``state`` is not reachable from the root."""
        return _winner(self.graph.at(self.scores, self.graph.position(state.cells, state.moves_played)))

    value = property(lambda self: _Table(self.graph, self.scores, _winner),
                     doc="winner under optimal play, terminal states included")
    depth = property(lambda self: _Table(self.graph, self.scores, self._depth),
                     doc="plies to the end: winner minimises, loser maximises")

    def _depth(self, score: int | None) -> int | None:
        return len(self.scores) - abs(score) if score else None


def _winner(score: int | None) -> Role | None:
    return None if not score else _SHRINKER if score > 0 else _AMPLIFIER


class _Table(Mapping):
    """A read-only view of values kept by layer and row id, by canonical state key, each found by ``GameGraph.find``."""

    def __init__(self, graph: GameGraph, values: list, decode: Callable) -> None:
        self._graph, self._values, self._decode = graph, values, decode

    def __getitem__(self, key: object) -> object:
        # decode gives None off the graph and where the row is not in the layer (score 0, NaN or None)
        value = self._decode(self._graph.at(self._values, self._graph.find(key)))
        if value is None:
            raise KeyError(key)
        return value

    def __iter__(self) -> Iterator[str]:  # the deepest layer first, the backward pass's order
        graph = self._graph
        for d in reversed(range(len(graph.layers))):
            suffix = str(graph.root.moves_played + d)
            yield from (graph.prefixes[i] + suffix for i in graph.layers[d][0])

    def __len__(self) -> int:
        return sum(len(layer) for layer, _ in self._graph.layers)


def _backward(graph: GameGraph, ends: tuple, node: Callable, new: Callable) -> list:
    """One value per state of ``graph``: a fresh ``new(width)`` per layer, root first, by row id.

    ``width`` is one past the layer's highest row id, so a layer's values fit in it; slots of
    rows the layer lacks keep what ``new`` put there.  A finished state is worth ``ends[0]`` if
    the Shrinker won, else ``ends[1]``; a live one, ``node(seat to move, [its children's values
    in encoded-action order])``.
    """
    kids, values, below = graph.kids, [], None
    for played, (layer, statuses) in reversed([*enumerate(graph.layers, graph.root.moves_played)]):
        seat, here = _seat_to_move(played), new(max(layer) + 1)
        for i, status in zip(layer, statuses):
            if status is ONGOING:
                here[i] = node(seat, [below[c] for c in kids[i]])
            else:
                here[i] = ends[0] if status.winner is _SHRINKER else ends[1]
        values.append(here)
        below = here
    return values[::-1]


def _best(seat: int, scores: list[int]) -> int:
    """The fastest win, or else the slowest loss, one ply further from the end."""
    s = max(scores) if seat == 0 else min(scores)  # the Shrinker's best score is the highest
    return s - 1 if s > 0 else s + 1


def solve(root: GameState | None = None) -> SolvedGame:
    root = root if root is not None else initial_state()
    if status_of(root) is not ONGOING:
        raise StateError("root state is already decided")
    graph = game_graph(root)
    # one score per state, in full-width layers as export_solved reads every row id of each: from the Shrinker's
    # side, horizon - depth if it wins, depth - horizon if the Amplifier does; no depth reaches horizon, so no 0
    horizon = len(graph.layers)
    scores = _backward(graph, (horizon, -horizon), _best, lambda _: array("b", bytes(graph.width)))
    counts = [0, 0]  # live states by the mover's seat, found by identity: count() would run __eq__ on the rest
    for moves, (_, statuses) in enumerate(graph.layers, root.moves_played):
        counts[_seat_to_move(moves)] += [status is ONGOING for status in statuses].count(True)
    return SolvedGame(root, graph, scores, *counts)


def optimal_policy(solved: SolvedGame, state: GameState) -> Action:
    """Best move: win as fast as possible, or lose as slowly as possible.

    Ties resolve to the lowest encoded action so the policy is a function.
    """
    if status_of(state).is_terminal:
        raise StateError("no move to pick in a finished game")
    return _row_actions(len(state.cells))[_optimal_code(solved, state.cells, state.moves_played)]


def _optimal_code(solved: SolvedGame, cells: tuple[int, ...], moves: int) -> int:
    """``optimal_policy``'s action code at the live state ``GameState(cells, moves)``, read from the scores."""
    graph = solved.graph
    pos = graph.position(cells, moves)
    if not graph.at(solved.scores, pos):  # 0 where the layer lacks the row, None off the graph
        raise StateError(f"state {state_key(GameState(cells, moves))!r} was never solved (unreachable from the root)")
    below = solved.scores[moves - graph.root.moves_played + 1]
    # a solved state's children, terminal or not, are solved one layer down; a higher
    # score is a Shrinker win, a faster one, or a slower loss; index finds the lowest code
    scores = [below[kid] for kid in graph.kids[pos % graph.width]]
    best = min(scores) if _seat_to_move(moves) else max(scores)
    return scores.index(best)


def _random_play(root: GameState, exact: bool) -> tuple[list, Callable]:
    """The Shrinker's win probability by layer and row id when both sides play uniformly, and its decoder.

    A float layer is an ``array('d')``, NaN where the layer holds no state.  An exact value is an
    integer over one denominator ``D = L ** (layers - 1)``, ``L`` the lcm of the live rows' numbers
    of moves: ``D`` times a probability ``d`` layers down is a multiple of ``L ** d``, so every mean
    divides exactly, and the pass makes no ``Fraction`` and no gcd.
    """
    graph = game_graph(root)
    if not exact:  # one by one in encoded-action order; sum() rounds differently on 3.12+
        values = _backward(graph, (1.0, 0.0), lambda _, outs: reduce(add, outs, 0.0) / len(outs),
                           lambda n: array("d", [math.nan]) * n)
        return values, lambda p: p if p == p else None  # None off the graph; NaN, an empty slot, is not == NaN
    from fractions import Fraction  # only an exact table loads it
    denom = math.lcm(*map(len, graph.kids.values())) ** (len(graph.layers) - 1)  # D
    values = _backward(graph, (denom, 0), lambda _, outs: sum(outs) // len(outs), lambda n: [None] * n)
    return values, lambda n: None if n is None else Fraction(n, denom)


def random_win_table(root: GameState | None = None, exact: bool = False) -> Mapping[str, float | Fraction]:
    """Shrinker win probability at every reachable state when both sides play uniformly."""
    root = root if root is not None else initial_state()
    return _Table(game_graph(root), *_random_play(root, exact))


def random_win_prob(state: GameState, exact: bool = False) -> float | Fraction:
    values, decode = _random_play(state, exact)
    return decode(values[0][0])  # the root is row 0 of the first layer


def export_solved(solved: SolvedGame, path: str) -> None:
    """One line per solved state, in key order: winner and plies-to-end under best play."""
    prefixes, scores = solved.graph.prefixes, solved.scores
    moves = [str(solved.root.moves_played + d) for d in range(len(scores))]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"#kind=solved\n#root={state_key(solved.root)}\n")
        # rows by key prefix, then move count as text: key order, as a prefix ends at its only "|"
        for i in sorted(range(len(prefixes)), key=prefixes.__getitem__):
            for m, s in sorted((moves[d], layer[i]) for d, layer in enumerate(scores) if layer[i]):
                fh.write(f"{prefixes[i]}{m}\t{_winner(s).value},{solved._depth(s)}\n")


@lru_cache(maxsize=1)
def default_solved() -> SolvedGame:
    """The solved standard game, computed once per process."""
    return solve()


class OptimalAgent(Seat):
    name = "optimal"

    def __init__(self, solved: SolvedGame | None = None) -> None:
        super().__init__()
        self.solved = solved if solved is not None else default_solved()

    def code(self, cells, moves):
        return _optimal_code(self.solved, cells, moves)
