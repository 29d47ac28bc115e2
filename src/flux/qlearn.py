"""Tabular Q-learning for Flux, one table per role.

Training cycles through three episode modes: the Shrinker learning against the
uniform ``RandomAgent`` seat, the Amplifier learning against it, and symmetric
self-play where both tables update; ``_SEATS_BY_MODE`` gives, per seat, ``None``
for a learner, else the ``Seat`` that plays it, and ``agents.draw`` makes every
uniform move.  A learner's transition runs from one of its own decision points to the
next, so the opponent's reply is folded into the environment.  The rewards are
fixed constants of the recipe, ``REWARDS``: +1 for a win and -1 for a loss at
the end of the game, 0 for every step in between; no flag or config field sets them.

Tables index the standard game's 8,410 live states by number on ``solver.standard_graph()``, kept for the
process, which writes and finds their keys too.  A ``QTable`` keeps flat stores: an array from state number
to row (-1 for none), each row's state number, ten ``float`` slots a row (two codes per opening cell; rows
never grow) and a bitmask of the updated codes.  An episode walks the graph by move count and row id,
building no state and no key: state keys exist only in table files and in the read-only ``entries`` view.
Only ``q_update`` and ``load_qtable`` add rows.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import chain
from math import isfinite
from typing import NamedTuple

from .agents import RandomAgent, RandomSource, draw
from .engine import (_ROLES, INITIAL_CELLS, MAX_PLIES, GameState, Role, _seat_to_move, state_from_key,
                     status_of)
from .errors import ConfigError, FormatError, text_lines
from .solver import standard_graph

CURRICULA = ("roundrobin", "block")  # the episode orders mode_for_episode knows

MODE_SHRINKER_VS_RANDOM = 1
MODE_AMPLIFIER_VS_RANDOM = 2
MODE_SELF_PLAY = 3

# the recipe's fixed rewards; digest() hashes them with the config's fields, under these names
REWARDS = {"reward_win": 1.0, "reward_loss": -1.0, "reward_step": 0.0}

_MOVERS = tuple(map(_seat_to_move, range(MAX_PLIES)))  # the seat to move by move count: an index a ply, not a call
_SEATS_BY_MODE = {  # per seat: None where that table learns, else the Seat that plays it
    MODE_SHRINKER_VS_RANDOM: (None, RandomAgent()),
    MODE_AMPLIFIER_VS_RANDOM: (RandomAgent(), None),
    MODE_SELF_PLAY: (None, None),
}


class TrainConfig(NamedTuple):
    episodes: int = 30_000
    seed: int = 0
    alpha: float = 0.2
    gamma: float = 0.92
    eps_start: float = 1.0
    eps_min: float = 0.05
    eps_decay: float = 0.9997
    curriculum: str = "roundrobin"  # or "block": three contiguous phases
    log_every: int = 1

    def validate(self) -> None:
        if self.episodes < 0:
            raise ConfigError("episodes must be >= 0")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("alpha must lie in (0, 1]")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("gamma must lie in [0, 1]")
        if not 0.0 <= self.eps_min <= self.eps_start <= 1.0:
            raise ConfigError("need 0 <= eps_min <= eps_start <= 1")
        if not 0.0 < self.eps_decay <= 1.0:
            raise ConfigError("eps_decay must lie in (0, 1]")
        if self.curriculum not in CURRICULA:
            raise ConfigError(f"unknown curriculum {self.curriculum!r}")
        if self.log_every < 1:
            raise ConfigError("log_every must be >= 1")

    def digest(self) -> str:
        """Short stable fingerprint so table files say what produced them."""
        import hashlib  # a set-up that trains nothing never loads it
        text = "|".join(f"{k}={v}" for k, v in sorted({**self._asdict(), **REWARDS}.items()))
        return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


_ROW = 2 * len(INITIAL_CELLS)  # Q slots per row: two codes per opening cell, as rows never grow
_ZERO_ROW = bytes(8 * _ROW)  # a row of 0.0


class _Rows(Mapping):
    """``QTable.entries``, read-only: a row reads as a fresh ``{code: value}`` dict."""

    def __init__(self, table: QTable) -> None:
        self._table = table

    def __getitem__(self, key: str) -> dict[int, float]:
        t, graph = self._table, standard_graph()
        n = graph.number(graph.find(key))  # -1 for anything but a live state's key
        if n < 0 or (row := t._index[n]) < 0:
            raise KeyError(key)
        return {code: t._q[row * _ROW + code] for code in range(_ROW) if t._seen[row] >> code & 1}

    def __len__(self) -> int:
        return len(self._table._seen)

    def __iter__(self) -> Iterator[str]:
        graph = standard_graph()
        return (graph.key(graph.live[n]) for n in self._table._numbers)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Rows):
            return Mapping.__eq__(self, other)
        a, b = self._table, other._table  # a slot never updated holds 0.0 in both
        return len(a._seen) == len(b._seen) and all(
            (j := b._index[n]) >= 0 and a._seen[i] == b._seen[j]
            and a._q[i * _ROW : (i + 1) * _ROW] == b._q[j * _ROW : (j + 1) * _ROW]
            for i, n in enumerate(a._numbers)
        )


class QTable:
    """One role's action values, by state number, in the flat stores the module docstring describes."""

    def __init__(self, role: Role, *, episodes: int = 0, config_digest: str = ""):
        self.role, self.episodes, self.config_digest = role, episodes, config_digest
        self._index = array("h", [-1]) * len(standard_graph().live)
        self._numbers, self._q, self._seen = array("h"), array("d"), array("H")

    entries = property(_Rows)  # a view per read: one kept on the table would make a reference cycle

    def _row(self, n: int) -> int:  # state n's row number, appending a row of 0.0 if it has none yet
        if (row := self._index[n]) < 0:
            row = self._index[n] = len(self._seen)
            self._numbers.append(n)
            self._q.frombytes(_ZERO_ROW)
            self._seen.append(0)
        return row

    def best_code(self, n: int, n_codes: int) -> int:
        """Argmax over state ``n``'s codes 0..n_codes-1 with 0.0 defaults; ties take the lowest code."""
        if (row := self._index[n]) < 0:
            return 0
        values = self._q[row * _ROW : row * _ROW + n_codes]
        return values.index(max(values))  # 0.0 == -0.0, so they tie too


def epsilon_at(episode: int, cfg: TrainConfig) -> float:
    return max(cfg.eps_min, cfg.eps_start * cfg.eps_decay**episode)


def mode_for_episode(episode: int, cfg: TrainConfig) -> int:
    if cfg.curriculum == "block":
        # Three contiguous phases over the whole run.
        return min(2, episode * 3 // max(1, cfg.episodes)) + 1
    return episode % 3 + 1


def q_update(q: QTable, n: int, a_code: int, reward: float, next_n: int | None, next_n_codes: int,
             cfg: TrainConfig) -> None:
    """One Bellman backup between state numbers; ``next_n=None`` marks a terminal transition (bootstrap 0)."""
    target = reward
    if next_n is not None:
        nxt = q._index[next_n]
        # a row holds values only under legal codes, and 0.0 under the ones never updated
        best = 0.0 if nxt < 0 else max(q._q[nxt * _ROW : nxt * _ROW + next_n_codes])
        target += cfg.gamma * best
    if (row := q._index[n]) < 0:
        row = q._row(n)
    slot = row * _ROW + a_code
    q._q[slot] += cfg.alpha * (target - q._q[slot])
    q._seen[row] |= 1 << a_code


def run_episode(mode: int, q_shrinker: QTable, q_amplifier: QTable, episode_idx: int, cfg: TrainConfig,
                rng: RandomSource) -> tuple[Role, int]:
    """Play one training game, updating the tables the mode lets learn; return (winner, plies).

    A ply steps along the standard graph's ``kids`` by (move count, row id) and reads the next state's number,
    -1 once the game is over.  A learner is epsilon-greedy; any other seat plays its ``code`` through ``draw``.
    """
    seats, tables, eps = _SEATS_BY_MODE[mode], (q_shrinker, q_amplifier), epsilon_at(episode_idx, cfg)
    graph, step = standard_graph(), REWARDS["reward_step"]
    kids, number, width, rows = graph.kids, graph.number, graph.width, graph.rows
    moves = row = n = 0  # the opening: move count 0, row id 0, state number 0
    pending: list[tuple[int, int] | None] = [None, None]  # each seat's last (state number, code)
    while n >= 0:
        mover, codes = _MOVERS[moves], kids[row]
        if (seat := seats[mover]) is None:
            table, n_codes = tables[mover], len(codes)
            if pending[mover]:
                q_update(table, *pending[mover], step, n, n_codes, cfg)
            # one draw decides explore vs exploit; exploring plays the uniform seat's draw
            code = draw(None, n_codes, rng) if rng.random() < eps else table.best_code(n, n_codes)
            pending[mover] = (n, code)
        else:
            code = draw(seat.code(rows[row], moves), len(codes), rng)
        moves, row = moves + 1, codes[code]
        n = number(moves * width + row)
    status = status_of(GameState(rows[row], moves))

    for role, table, last in zip(_ROLES, tables, pending):
        if last:
            reward = REWARDS["reward_win"] if status.winner is role else REWARDS["reward_loss"]
            q_update(table, *last, reward, None, 0, cfg)
    return status.winner, moves


class CurvePoint(NamedTuple):
    episode: int
    mode: int
    epsilon: float
    winner: Role
    plies: int
    states_shrinker: int
    states_amplifier: int


class Curve(Sequence):
    """A training curve of ``cfg``: one flat ``array`` column per ``CurvePoint`` field the config does not fix.

    ``append`` takes a point's episode, winner as its ``player_index``, plies and
    the two table sizes; a ``CurvePoint`` is built only when it is read, with the
    mode and epsilon ``cfg`` gives its episode, so a point costs 10 bytes, not an
    object with a dict.  Like a list of points, a curve compares equal to any
    sequence of the same points.
    """

    def __init__(self, cfg: TrainConfig) -> None:
        # episode, winner's seat, plies (at most 15), states per table (at most the 8,410 live states)
        self.cfg, self.columns = cfg, tuple(array(code) for code in "IBBHH")

    def append(self, *values: int) -> None:
        for column, value in zip(self.columns, values, strict=True):
            column.append(value)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index: int | slice) -> CurvePoint | Curve:
        if isinstance(index, slice):
            part = Curve(self.cfg)
            part.columns = tuple(column[index] for column in self.columns)
            return part
        return self._point(*[column[index] for column in self.columns])

    def __iter__(self) -> Iterator[CurvePoint]:
        return map(self._point, *self.columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def _point(self, episode: int, seat: int, *rest: int) -> CurvePoint:  # from its column values
        cfg = self.cfg
        return CurvePoint(episode, mode_for_episode(episode, cfg), epsilon_at(episode, cfg), _ROLES[seat], *rest)


def train(cfg: TrainConfig) -> tuple[QTable, QTable, Curve]:
    cfg.validate()
    rng = RandomSource(cfg.seed)
    digest = cfg.digest()
    q_shrinker = QTable(Role.SHRINKER, episodes=cfg.episodes, config_digest=digest)
    q_amplifier = QTable(Role.AMPLIFIER, episodes=cfg.episodes, config_digest=digest)
    curve = Curve(cfg)
    for episode in range(cfg.episodes):
        mode = mode_for_episode(episode, cfg)
        winner, plies = run_episode(mode, q_shrinker, q_amplifier, episode, cfg, rng)
        if episode % cfg.log_every == 0 or episode == cfg.episodes - 1:
            curve.append(episode, winner.player_index, plies, len(q_shrinker._seen), len(q_amplifier._seen))
    return q_shrinker, q_amplifier, curve


def final_epsilon(cfg: TrainConfig) -> float:
    """Epsilon in force during the last episode (eps_start when nothing ran)."""
    return epsilon_at(max(cfg.episodes - 1, 0), cfg)


# ---------------------------------------------------------------------------
# Table files: '#'-prefixed headers, then one tab-separated line per state.
# ---------------------------------------------------------------------------

_HEADERS = ("role", "episodes", "config_digest")  # a table file has each once, as save_qtable writes them


def save_qtable(q: QTable, path: str) -> None:
    values, masks, graph = q._q, q._seen, standard_graph()
    prefixes = graph.prefixes  # built by the first key this process writes
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"#role={q.role.value}\n#episodes={q.episodes}\n#config_digest={q.config_digest}\n")
        # key order without the keys: a prefix holds one "|", at its end, so it sorts before the move count
        spots = (divmod(graph.live[n], graph.width) for n in q._numbers)  # (moves, row id) of each table row
        for prefix, moves, row in sorted((prefixes[i], str(m), row) for row, (m, i) in enumerate(spots)):
            seen = masks[row]
            cells = ";".join([f"{c}={values[row * _ROW + c]!r}" for c in range(seen.bit_length()) if seen >> c & 1])
            fh.write(f"{prefix}{moves}\t{cells}\n")


def load_qtable(path: str) -> QTable:
    headers: dict[str, str | Role] = {}
    q = None  # made at the first line after the headers
    lines = chain(text_lines(path, "ascii", FormatError), [""])  # the last "" makes a table of a file without rows
    for i, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if q is None:
            if line.startswith("#"):
                name, sep, value = line[1:].partition("=")
                if not sep or name not in _HEADERS or name in headers:
                    problem = "malformed" if not sep else "repeated" if name in headers else "unknown"
                    raise FormatError(f"{path}: line {i}: {problem} header {line!r}")
                if name == "episodes" and not (value.isdigit() and str(int(value)) == value):
                    raise FormatError(f"{path}: line {i}: #episodes={value} is not a count save_qtable writes")
                try:
                    headers[name] = Role(value) if name == "role" else value
                except ValueError as exc:
                    raise FormatError(f"{path}: line {i}: bad header value ({exc})") from exc
                continue
            if missing := [name for name in _HEADERS if name not in headers]:
                raise FormatError(f"{path}: line {i}: missing #{missing[0]}= header")
            q = QTable(headers["role"], episodes=int(headers["episodes"]), config_digest=headers["config_digest"])
            index, values, graph = q._index, q._q, standard_graph()
        if not line:
            continue
        key, sep, cells = line.partition("\t")
        if not sep or not cells:
            raise FormatError(f"{path}: line {i}: expected '<state>\\t<code>=<value>;...'")
        try:
            n = graph.number(graph.find(key))  # a row under any key but a live state's would never be looked up
            if n < 0:
                finished = status_of(state_from_key(key)).is_terminal  # state_from_key raises on other text
                raise ValueError(f"{'finished' if finished else 'unreachable'} state {key!r} is never looked up")
            if index[n] >= 0:
                raise ValueError(f"repeated state key {key!r}")
            if "_" in cells or " " in cells or not cells.isprintable():  # int() and float() read "1_0" and " 1"
                raise ValueError(f"underscore or whitespace in {cells!r}, which save_qtable never writes")
            row, n_codes, seen = q._row(n), len(graph.kids[graph.live[n] % graph.width]), 0
            for item in cells.split(";"):
                code_s, sep2, value_s = item.partition("=")
                if not sep2:
                    raise ValueError(f"bad entry {item!r}")
                code, value = int(code_s), float(value_s)
                if str(code) != code_s:  # int() also reads "+1", "01" and "-0"
                    raise ValueError(f"code {code_s!r} is not a code save_qtable writes")
                if not 0 <= code < n_codes:
                    raise ValueError(f"code {code} out of range for key {key!r}")
                if not isfinite(value):
                    raise ValueError(f"non-finite value for code {code}")
                if seen & (bit := 1 << code):
                    raise ValueError(f"repeated code {code} for key {key!r}")
                values[row * _ROW + code] = value
                seen |= bit
        except ValueError as exc:
            raise FormatError(f"{path}: line {i}: {exc}") from exc
        q._seen[row] = seen
    return q


CURVE_HEADER = "episode,mode,epsilon,winner,plies,states_shrinker,states_amplifier"


def write_curve(points: Iterable[CurvePoint], path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(CURVE_HEADER + "\n")
        fh.writelines(
            f"{p.episode},{p.mode},{p.epsilon!r},{p.winner.value},"
            f"{p.plies},{p.states_shrinker},{p.states_amplifier}\n"
            for p in points
        )
