"""Tabular Q-learning for Flux, one table per role.

Training cycles through three episode modes: the Shrinker learning against a
random opponent, the Amplifier learning against a random opponent, and
symmetric self-play where both tables update.  A learner's transition runs
from one of its own decision points to the next, so the opponent's reply is
folded into the environment; rewards are +1/-1 at the end of the game and 0
in between.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass, field

from .agents import RandomSource, random_policy
from .engine import (
    _ROLES,
    ONGOING,
    GameState,
    Role,
    _row_actions,
    _seat_to_move,
    _step,
    initial_state,
    state_from_key,
    state_key,
    status_of,
)
from .errors import ConfigError, FormatError

CURRICULA = ("roundrobin", "block")  # the episode orders mode_for_episode knows

MODE_SHRINKER_VS_RANDOM = 1
MODE_AMPLIFIER_VS_RANDOM = 2
MODE_SELF_PLAY = 3

_LEARNS_BY_MODE = {  # whether each seat's table updates
    MODE_SHRINKER_VS_RANDOM: (True, False),
    MODE_AMPLIFIER_VS_RANDOM: (False, True),
    MODE_SELF_PLAY: (True, True),
}


@dataclass(frozen=True)
class TrainConfig:
    episodes: int = 30_000
    seed: int = 0
    alpha: float = 0.2
    gamma: float = 0.92
    eps_start: float = 1.0
    eps_min: float = 0.05
    eps_decay: float = 0.9997
    reward_win: float = 1.0
    reward_loss: float = -1.0
    reward_step: float = 0.0
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
        text = "|".join(f"{k}={v}" for k, v in sorted(asdict(self).items()))
        return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


@dataclass
class QTable:
    role: Role
    entries: dict[str, dict[int, float]] = field(default_factory=dict)
    episodes: int = 0
    config_digest: str = ""

    def best_code(self, key: str, n_codes: int) -> int:
        """Argmax over codes 0..n_codes-1 with 0.0 defaults; ties take the lowest code."""
        row = self.entries.get(key)
        if row is None:
            return 0
        best, best_v = 0, None
        for code in range(n_codes):
            v = row.get(code, 0.0)
            if best_v is None or v > best_v:
                best, best_v = code, v
        return best


def epsilon_at(episode: int, cfg: TrainConfig) -> float:
    return max(cfg.eps_min, cfg.eps_start * cfg.eps_decay**episode)


def mode_for_episode(episode: int, cfg: TrainConfig) -> int:
    if cfg.curriculum == "block":
        # Three contiguous phases over the whole run.
        return min(2, episode * 3 // max(1, cfg.episodes)) + 1
    return episode % 3 + 1


def q_update(
    q: QTable,
    key: str,
    a_code: int,
    reward: float,
    next_key: str | None,
    next_n_codes: int,  # the next state's count of legal codes
    cfg: TrainConfig,
) -> None:
    """One Bellman backup.  ``next_key=None`` marks a terminal transition (bootstrap 0)."""
    target = reward
    if next_key is not None:
        row = q.entries.get(next_key, {})  # a stored row holds only legal codes
        best = max(row.values(), default=0.0)
        if len(row) < next_n_codes:  # an absent legal code is worth 0.0
            best = max(best, 0.0)
        target += cfg.gamma * best
    row = q.entries.setdefault(key, {})
    old = row.get(a_code, 0.0)
    row[a_code] = old + cfg.alpha * (target - old)


@dataclass
class EpisodeResult:
    winner: Role
    plies: int


def run_episode(
    mode: int,
    q_shrinker: QTable,
    q_amplifier: QTable,
    episode_idx: int,
    cfg: TrainConfig,
    rng: RandomSource,
) -> EpisodeResult:
    """Play one training game, updating whichever tables the mode marks as learners.

    A ply is one ``_step`` and one ``status_of``; a seat indexes the tables by ``player_index``.
    """
    learns = _LEARNS_BY_MODE[mode]
    tables = (q_shrinker, q_amplifier)
    eps = epsilon_at(episode_idx, cfg)

    state, status = initial_state(), ONGOING
    pending: list[tuple[str, int] | None] = [None, None]  # each seat's last (key, code)
    while status is ONGOING:
        seat = _seat_to_move(state.moves_played)
        if learns[seat]:
            table, key, n_codes = tables[seat], state_key(state), 2 * len(state.cells)
            if pending[seat]:
                q_update(table, *pending[seat], cfg.reward_step, key, n_codes, cfg)
            # One draw decides explore vs exploit; a second picks the move
            # only when exploring.
            code = rng.randrange(n_codes) if rng.random() < eps else table.best_code(key, n_codes)
            pending[seat] = (key, code)
            action = _row_actions(len(state.cells))[code]
        else:
            action = random_policy(state, rng)
        state = GameState(_step(state.cells, action.index, action.op), state.moves_played + 1)
        status = status_of(state)

    for role, table, last in zip(_ROLES, tables, pending):
        if last:
            reward = cfg.reward_win if status.winner is role else cfg.reward_loss
            q_update(table, *last, reward, None, 0, cfg)
    return EpisodeResult(winner=status.winner, plies=state.moves_played)


@dataclass
class CurvePoint:
    episode: int
    mode: int
    epsilon: float
    winner: Role
    plies: int
    states_shrinker: int
    states_amplifier: int


class Curve(Sequence):
    """The training curve: one flat ``array`` column per ``CurvePoint`` field.

    ``winner`` is stored as its ``player_index``, and a ``CurvePoint`` is
    built only when it is read, so a point costs a few dozen bytes, not an
    object with a dict.  Like a list of points, a curve compares equal to
    any sequence of the same points.
    """

    def __init__(self) -> None:
        # episode, mode, epsilon, winner's seat, plies (at most 15), states per table
        self.columns = tuple(array(code) for code in "IBdBBII")

    def append(self, point: CurvePoint) -> None:
        fields = dict(vars(point), winner=point.winner.player_index)
        for column, value in zip(self.columns, fields.values()):
            column.append(value)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index: int | slice) -> CurvePoint | Curve:
        if isinstance(index, slice):
            part = Curve()
            part.columns = tuple(column[index] for column in self.columns)
            return part
        return _curve_point([column[index] for column in self.columns])

    def __iter__(self) -> Iterator[CurvePoint]:
        return map(_curve_point, zip(*self.columns))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def _curve_point(fields: Iterable) -> CurvePoint:
    """A point from its column values, ``winner`` read back from its seat."""
    point = CurvePoint(*fields)
    point.winner = _ROLES[point.winner]
    return point


def train(cfg: TrainConfig) -> tuple[QTable, QTable, Curve]:
    cfg.validate()
    rng = RandomSource(cfg.seed)
    digest = cfg.digest()
    q_shrinker = QTable(Role.SHRINKER, episodes=cfg.episodes, config_digest=digest)
    q_amplifier = QTable(Role.AMPLIFIER, episodes=cfg.episodes, config_digest=digest)
    curve = Curve()
    for episode in range(cfg.episodes):
        mode = mode_for_episode(episode, cfg)
        result = run_episode(mode, q_shrinker, q_amplifier, episode, cfg, rng)
        if episode % cfg.log_every == 0 or episode == cfg.episodes - 1:
            curve.append(
                CurvePoint(
                    episode=episode,
                    mode=mode,
                    epsilon=epsilon_at(episode, cfg),
                    winner=result.winner,
                    plies=result.plies,
                    states_shrinker=len(q_shrinker.entries),
                    states_amplifier=len(q_amplifier.entries),
                )
            )
    return q_shrinker, q_amplifier, curve


def final_epsilon(cfg: TrainConfig) -> float:
    """Epsilon in force during the last episode (eps_start when nothing ran)."""
    if cfg.episodes == 0:
        return cfg.eps_start
    return epsilon_at(cfg.episodes - 1, cfg)


# ---------------------------------------------------------------------------
# Table files: '#'-prefixed headers, then one tab-separated line per state.
# ---------------------------------------------------------------------------


def save_qtable(q: QTable, path: str) -> None:
    lines = [
        f"#role={q.role.value}",
        f"#episodes={q.episodes}",
        f"#config_digest={q.config_digest}",
    ]
    for key in sorted(q.entries):
        row = q.entries[key]
        cells = ";".join(f"{code}={row[code]!r}" for code in sorted(row))
        lines.append(f"{key}\t{cells}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_qtable(path: str) -> QTable:
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read().splitlines()
    headers: dict[str, str] = {}
    body_start = 0
    for i, line in enumerate(raw):
        if not line.startswith("#"):
            body_start = i
            break
        name, sep, value = line[1:].partition("=")
        if not sep:
            raise FormatError(f"{path}: line {i + 1}: malformed header {line!r}")
        headers[name] = value
        body_start = i + 1
    for required in ("role", "episodes", "config_digest"):
        if required not in headers:
            raise FormatError(f"{path}: line 1: missing #{required}= header")
    try:
        q = QTable(
            role=Role(headers["role"]),
            episodes=int(headers["episodes"]),
            config_digest=headers["config_digest"],
        )
    except ValueError as exc:
        raise FormatError(f"{path}: line 1: bad header value ({exc})") from exc
    for i in range(body_start, len(raw)):
        line = raw[i]
        if not line:
            continue
        key, sep, cells = line.partition("\t")
        if not sep or not cells:
            raise FormatError(f"{path}: line {i + 1}: expected '<state>\\t<code>=<value>;...'")
        try:
            state = state_from_key(key)
            # state_key never writes "02", " 2" or "+0", and no agent moves in
            # a finished state: a row under such a key would never be looked up
            if state_key(state) != key:
                raise ValueError(f"non-canonical state key {key!r}")
            if status_of(state) is not ONGOING:
                raise ValueError(f"finished state {key!r} is never looked up")
            if key in q.entries:
                raise ValueError(f"repeated state key {key!r}")
            row_len = len(state.cells)
            row: dict[int, float] = {}
            for item in cells.split(";"):
                code_s, sep2, value_s = item.partition("=")
                if not sep2:
                    raise ValueError(f"bad entry {item!r}")
                code = int(code_s)
                value = float(value_s)
                if not 0 <= code < 2 * row_len:
                    raise ValueError(f"code {code} out of range for key {key!r}")
                if not math.isfinite(value):
                    raise ValueError(f"non-finite value for code {code}")
                if code in row:
                    raise ValueError(f"repeated code {code} for key {key!r}")
                row[code] = value
        except ValueError as exc:
            raise FormatError(f"{path}: line {i + 1}: {exc}") from exc
        q.entries[key] = row
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
