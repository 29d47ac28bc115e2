"""Exact solver: one row graph per root, evaluated backwards from its leaves.

A state's children depend only on its row, and so does its status below the
ply limit: the 16,613 states of the standard game hold 3,333 distinct rows,
each live row is stepped once, through the unchecked step ``apply`` shares,
and the status rule runs once per row and once per state at the limit.
``game_graph`` builds a root's ``GameGraph``, one layer of rows per move count;
``standard_graph`` keeps the standard game's for the life of the process, and no
other module keeps one.  Each exact question reads one graph and none changes it.
It is the one index of the root's states: a state's position (move count and row
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
from functools import cache, partial, reduce
from itertools import chain, islice, repeat
from operator import add
from typing import TYPE_CHECKING

from .agents import Seat
from .engine import (
    _AMPLIFIER,
    _OPS,
    _ROLES,
    _SHRINKER,
    MAX_PLIES,
    ONGOING,
    Action,
    GameState,
    Role,
    TerminalStatus,
    _key_fields,
    _key_prefix,
    _row_actions,
    _seat_to_move,
    _status,
    _step,
    initial_state,
    state_key,
    status_of,
)
from .errors import StateError

if TYPE_CHECKING:
    from collections.abc import Callable, Iterator
    from fractions import Fraction

_Layer = tuple[array, array]  # row ids at one move count, their status codes
_STATUSES = tuple(TerminalStatus)  # a status code is its index here: 0 for ONGOING


class GameGraph:
    """The row graph from ``root``, and the one index of its states and keys.  Read it; never change it.

    ``ids`` maps each row's cells to its row id, in order of discovery; ``rows`` lists the cells by id, ``width`` rows.
    ``kids[i]`` is a tuple of row ``i``'s children, one per legal action in encoded-action order, stepped the
    first time the row is live, else ``()``.  Layer ``d`` is two arrays: the distinct rows at move count
    ``root.moves_played + d`` in order of discovery, the children of the live rows above, and each state's status
    code, its index in ``_STATUSES``.  ``prefixes[i]``, row ``i``'s key up to its move count, is built by the first
    key written; ``find`` checks keys by the engine's grammar.  A state's position is ``moves * width + row``;
    ``live`` holds the live states' positions ascending, and a number indexes it.
    """

    __slots__ = ("root", "ids", "rows", "kids", "layers", "width", "live", "_prefixes")

    def __init__(self, root: GameState, ids: dict[tuple[int, ...], int], rows: list[tuple[int, ...]],
                 kids: list[tuple[int, ...]], layers: list[_Layer], width: int, live: array) -> None:
        self.root, self.ids, self.rows, self.kids = root, ids, rows, kids
        self.layers, self.width, self.live, self._prefixes = layers, width, live, None

    def __eq__(self, other: object) -> bool:  # field by field but the prefixes, which the rows fix
        return type(other) is GameGraph and all(getattr(self, f) == getattr(other, f) for f in self.__slots__[:-1])

    @property
    def prefixes(self) -> list[str]:
        if self._prefixes is None:
            self._prefixes = [*map(_key_prefix, self.rows)]
        return self._prefixes

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
        """The position whose key is ``key``, or -1: for any text but a canonical key of a state on the graph."""
        try:
            return self.position(*_key_fields(key))
        except (TypeError, ValueError):  # not a string, or not in the key grammar
            return -1

    def at(self, values: list, pos: int) -> object:
        """``values``' entry for position ``pos``, by layer from the root and row id; None for -1 or past a layer."""
        moves, row = divmod(pos, self.width)
        layer = values[moves - self.root.moves_played] if pos >= 0 else ()
        return layer[row] if row < len(layer) else None


def game_graph(root: GameState) -> GameGraph:
    """The ``GameGraph`` from ``root``: the kept ``standard_graph()`` for the opening, else a fresh build."""
    return standard_graph() if root == initial_state() else _build_graph(root)


def _build_graph(root: GameState) -> GameGraph:
    ids, rows = {root.cells: 0}, []  # cells -> row id in order of discovery, and row id -> cells
    kids: list[tuple[int, ...]] = []
    row_codes = bytearray()  # each row's status code below the ply limit
    layers: list[_Layer] = []
    layer, moves = [0], root.moves_played
    while layer:
        rows += islice(ids, len(rows), None)  # the rows found since the last layer
        row_codes += bytes([_STATUSES.index(_status(row, 0)) for row in rows[len(row_codes):]])
        kids += [()] * (len(rows) - len(kids))
        if moves < MAX_PLIES:  # _status tests the move count last, after the sum and the length
            codes = array("B", [row_codes[i] for i in layer])
        else:
            codes = array("B", [_STATUSES.index(_status(rows[i], moves)) for i in layer])
        live = [i for i, code in zip(layer, codes) if not code]
        for i in live:
            if not kids[i]:  # in encoded-action order: both ops on cell 0, then on cell 1, ...
                cells = rows[i]
                kids[i] = tuple([ids.setdefault(_step(cells, j, op), len(ids))
                                 for j in range(len(cells)) for op in _OPS])
        layers.append((array("H" if len(rows) <= 0x10000 else "I", layer), codes))  # two bytes an id while ids fit
        layer = list(dict.fromkeys(chain.from_iterable([kids[i] for i in live])))
        moves += 1
    positions = array("I")  # layers run by move count, so sorting each layer's live positions sorts them all
    for moves, (layer, codes) in enumerate(layers, root.moves_played):
        positions.extend(sorted(moves * len(rows) + i for i, code in zip(layer, codes) if not code))
    return GameGraph(root, ids, rows, kids, layers, len(rows), positions)


@cache
def standard_graph() -> GameGraph:
    """The standard game's ``GameGraph``, built once and kept for the life of the process."""
    return _build_graph(initial_state())


class _States(Sequence):
    """Read-only states at positions ``moves * width + row``, each built when read; with ``ends``, status pairs."""

    def __init__(self, rows: list[tuple[int, ...]], width: int, at: array, ends: array | None = None) -> None:
        self._rows, self._width, self._at, self._ends = rows, width, at, ends

    def __len__(self) -> int:
        return len(self._at)

    def __getitem__(self, n: int) -> GameState | tuple[GameState, TerminalStatus]:
        moves, row = divmod(self._at[n], self._width)  # the array raises IndexError past either end
        state = GameState(self._rows[row], moves)
        return state if self._ends is None else (state, _STATUSES[self._ends[n]])

    def __iter__(self) -> Iterator[GameState | tuple[GameState, TerminalStatus]]:  # one pass, no __getitem__ a state
        rows = self._rows
        states = (GameState(rows[row], moves) for moves, row in map(divmod, self._at, repeat(self._width)))
        return states if self._ends is None else zip(states, map(_STATUSES.__getitem__, self._ends))


class Reachable:
    """Every state legal moves reach from a root, in order of discovery; it keeps the root's graph."""

    def __init__(self, root: GameState) -> None:
        self._graph = graph = game_graph(root)
        rows, width, layers, live, done = graph.rows, graph.width, graph.layers, array("I"), array("I")
        for moves, (layer, codes) in enumerate(layers, root.moves_played):
            for i, code in zip(layer, codes):
                (done if code else live).append(moves * width + i)
        ends = array("B", [code for _, codes in layers for code in codes if code])
        self.ongoing, self.terminal = _States(rows, width, live), _States(rows, width, done, ends)

    def ongoing_keys(self, role: Role | None = None) -> frozenset[str]:
        graph = self._graph
        return frozenset(graph.key(pos) for pos in graph.live
                         if role is None or _ROLES[_seat_to_move(pos // graph.width)] is role)


def reachable_states(root: GameState | None = None) -> Reachable:
    """Breadth-first closure; children are discovered in encoded-action order."""
    return Reachable(root if root is not None else initial_state())


class SolvedGame:
    """``scores[d][i]`` is row ``i``'s score on ``graph = game_graph(root)`` at move count ``root.moves_played + d``:
    0 if unreachable, horizon - depth if the Shrinker wins, else depth - horizon.  Counts: live states by mover."""

    __slots__ = ("root", "graph", "scores", "reachable_shrinker", "reachable_amplifier")

    def __init__(self, root: GameState, graph: GameGraph, scores: list[array], shrinker: int, amplifier: int) -> None:
        self.root, self.graph, self.scores = root, graph, scores
        self.reachable_shrinker, self.reachable_amplifier = shrinker, amplifier

    def winner(self, state: GameState) -> Role | None:
        """The winner under optimal play, or None if ``state`` is not reachable from the root."""
        return _winner(self.graph.at(self.scores, self.graph.position(state.cells, state.moves_played)))

    value = property(lambda self: _Table(self.graph, self.scores, _winner),
                     doc="winner under optimal play, terminal states included")
    depth = property(lambda self: _Table(self.graph, self.scores, self._depth),
                     doc="plies to the end: winner minimises, loser maximises")

    def _depth(self, score: int | None) -> int | None:
        return len(self.scores) - abs(score) if score else None

    def __repr__(self) -> str:  # not the scores
        return (f"SolvedGame(root={self.root!r}, reachable_shrinker={self.reachable_shrinker}, "
                f"reachable_amplifier={self.reachable_amplifier})")


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
        graph, prefixes = self._graph, self._graph.prefixes
        for d in reversed(range(len(graph.layers))):
            suffix = str(graph.root.moves_played + d)
            yield from (prefixes[i] + suffix for i in graph.layers[d][0])

    def __len__(self) -> int:
        return sum(len(layer) for layer, _ in self._graph.layers)


def _backward(graph: GameGraph, ends: tuple, node: Callable, new: Callable, keep: Callable | None = None) -> list:
    """One value per state of ``graph``, root first, by row id: a fresh ``new(width)`` per layer, kept
    as filled or, with ``keep``, as ``keep(layer)`` once the layer above has read it.

    ``width`` is one past the layer's highest row id, so a layer's values fit in it; slots of
    rows the layer lacks keep what ``new`` put there.  A finished state is worth ``ends[0]`` if
    the Shrinker won, else ``ends[1]``; a live one, ``node(seat to move, an iterator over its
    children's values in encoded-action order, their number)``.
    """
    kids, values, here = graph.kids, [], ()
    end = [ends[0] if status.winner is _SHRINKER else ends[1] for status in _STATUSES]  # by status code
    for played, (layer, codes) in reversed([*enumerate(graph.layers, graph.root.moves_played)]):
        seat, below, get, here = _seat_to_move(played), here, here.__getitem__, new(max(layer) + 1)
        for i, code in zip(layer, codes):
            here[i] = end[code] if code else node(seat, map(get, kid := kids[i]), len(kid))
        values.append(below if keep is None else keep(below))
    values.append(here if keep is None else keep(here))
    return values[:0:-1]  # root first, without the empty layer below the last


def _best(seat: int, scores: Iterator[int], _: int) -> int:
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
    counts, live, width = [0, 0], graph.live, graph.width  # live states by the mover's seat, a run of live a layer
    for moves in range(root.moves_played, root.moves_played + len(graph.layers)):
        counts[_seat_to_move(moves)] += bisect_left(live, (moves + 1) * width) - bisect_left(live, moves * width)
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


def random_win_table(root: GameState | None = None, exact: bool = False) -> Mapping[str, float | Fraction]:
    """Shrinker win probability at every reachable state when both sides play uniformly.

    The pass keeps it by layer and row id.  A float layer is an ``array('d')``, NaN where the layer
    holds no state.  An exact value is an integer over one denominator ``D = L ** (layers - 1)``,
    ``L`` the lcm of the live rows' numbers of moves: ``D`` times a probability ``d`` layers down is
    a multiple of ``L ** d``, so every mean divides exactly, and the pass makes no ``Fraction`` and no gcd.
    """
    graph = game_graph(root if root is not None else initial_state())
    if not exact:  # one by one in encoded-action order; sum() rounds differently on 3.12+
        # a layer is filled as a list, whose reads hand back the stored floats, then kept as an array
        values = _backward(graph, (1.0, 0.0), lambda _, outs, n: reduce(add, outs, 0.0) / n,
                           lambda n: [math.nan] * n, partial(array, "d"))
        return _Table(graph, values, lambda p: p if p == p else None)  # NaN, an empty slot, is not == NaN
    from fractions import Fraction  # only an exact table loads it
    denom = math.lcm(*filter(None, map(len, graph.kids))) ** (len(graph.layers) - 1)  # D: () is a row never live
    values = _backward(graph, (denom, 0), lambda _, outs, n: sum(outs) // n, lambda n: [None] * n)
    return _Table(graph, values, lambda n: None if n is None else Fraction(n, denom))


def random_win_prob(state: GameState, exact: bool = False) -> float | Fraction:
    return random_win_table(state, exact)[state_key(state)]


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


@cache
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
