"""Tabular Q-learning for Flux, one table per role.

Training cycles through three episode modes: the Shrinker learning against a
random opponent, the Amplifier learning against a random opponent, and
symmetric self-play where both tables update.  A learner's transition runs
from one of its own decision points to the next, so the opponent's reply is
folded into the environment; rewards are +1/-1 at the end of the game and 0
in between.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field

from .agents import RandomSource, random_policy
from .engine import (
    Role,
    apply,
    decode_action,
    initial_state,
    role_to_move,
    state_from_key,
    state_key,
)
from .errors import ConfigError, FormatError

MODE_SHRINKER_VS_RANDOM = 1
MODE_AMPLIFIER_VS_RANDOM = 2
MODE_SELF_PLAY = 3

_LEARNERS_BY_MODE = {
    MODE_SHRINKER_VS_RANDOM: (Role.SHRINKER,),
    MODE_AMPLIFIER_VS_RANDOM: (Role.AMPLIFIER,),
    MODE_SELF_PLAY: (Role.SHRINKER, Role.AMPLIFIER),
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
        if self.curriculum not in ("roundrobin", "block"):
            raise ConfigError(f"unknown curriculum {self.curriculum!r}")
        if self.log_every < 1:
            raise ConfigError("log_every must be >= 1")

    def digest(self) -> str:
        """Short stable fingerprint so table files say what produced them."""
        text = "|".join(f"{k}={v}" for k, v in sorted(asdict(self).items()))
        return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


@dataclass
class QTable:
    role: Role
    entries: dict[str, dict[int, float]] = field(default_factory=dict)
    episodes: int = 0
    config_digest: str = ""

    def value(self, key: str, code: int) -> float:
        """Read-only lookup; absent rows and absent actions are worth 0.0."""
        row = self.entries.get(key)
        if row is None:
            return 0.0
        return row.get(code, 0.0)

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
    next_legal_codes: range | list[int],
    cfg: TrainConfig,
) -> None:
    """One Bellman backup.  ``next_key=None`` marks a terminal transition (bootstrap 0)."""
    target = reward
    if next_key is not None:
        target += cfg.gamma * max(q.value(next_key, c) for c in next_legal_codes)
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
    """Play one training game, updating whichever tables the mode marks as learners."""
    learners = _LEARNERS_BY_MODE[mode]
    tables = {Role.SHRINKER: q_shrinker, Role.AMPLIFIER: q_amplifier}
    eps = epsilon_at(episode_idx, cfg)

    state = initial_state()
    status = None
    pending: dict[Role, tuple[str, int]] = {}
    plies = 0
    while True:
        role = role_to_move(state)
        n_codes = 2 * len(state.cells)
        if role in learners:
            table = tables[role]
            key = state_key(state)
            if role in pending:
                pk, pc = pending[role]
                q_update(table, pk, pc, cfg.reward_step, key, range(n_codes), cfg)
            # One draw decides explore vs exploit; a second picks the move
            # only when exploring.
            if rng.random() < eps:
                code = rng.randrange(n_codes)
            else:
                code = table.best_code(key, n_codes)
            pending[role] = (key, code)
            action = decode_action(code, len(state.cells))
        else:
            action = random_policy(state, rng)
        state, status = apply(state, action)
        plies += 1
        if status.is_terminal:
            break

    for role, (pk, pc) in pending.items():
        reward = cfg.reward_win if status.winner is role else cfg.reward_loss
        q_update(tables[role], pk, pc, reward, None, (), cfg)
    return EpisodeResult(winner=status.winner, plies=plies)


@dataclass
class CurvePoint:
    episode: int
    mode: int
    epsilon: float
    winner: Role
    plies: int
    states_shrinker: int
    states_amplifier: int


def train(cfg: TrainConfig) -> tuple[QTable, QTable, list[CurvePoint]]:
    cfg.validate()
    rng = RandomSource(cfg.seed)
    digest = cfg.digest()
    q_shrinker = QTable(Role.SHRINKER, episodes=cfg.episodes, config_digest=digest)
    q_amplifier = QTable(Role.AMPLIFIER, episodes=cfg.episodes, config_digest=digest)
    curve: list[CurvePoint] = []
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
            # state_key never writes "02", " 2" or "+0"; a row under such a
            # key would never be looked up
            if state_key(state) != key:
                raise ValueError(f"non-canonical state key {key!r}")
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
                row[code] = value
        except ValueError as exc:
            raise FormatError(f"{path}: line {i + 1}: {exc}") from exc
        q.entries[key] = row
    return q


CURVE_HEADER = "episode,mode,epsilon,winner,plies,states_shrinker,states_amplifier"


def write_curve(points: list[CurvePoint], path: str) -> None:
    lines = [CURVE_HEADER]
    for p in points:
        lines.append(
            f"{p.episode},{p.mode},{p.epsilon!r},{p.winner.value},"
            f"{p.plies},{p.states_shrinker},{p.states_amplifier}"
        )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
