"""Match running: seeded games, matchup counters, transcripts, and failure tagging.

Player 0 always sits as the Shrinker; evaluating an agent as the Amplifier is
just a second matchup with the seats swapped.  Game ``i`` of a matchup is
seeded with ``base_seed + i`` and owns its agents and its RNG, so any single
game can be replayed in isolation and stats do not depend on the order games
were played in.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields

from .agents import (
    AgentPolicy,
    GreedyQAgent,
    HeuristicAgent,
    RandomAgent,
    RandomSource,
)
from .engine import (
    _ROLES,
    Action,
    GameState,
    Op,
    Role,
    TerminalStatus,
    _seat_to_move,
    apply,
    decode_action,
    encode_action,
    initial_state,
    legal_actions,
    status_of,
)
from .errors import ConfigError, FormatError, text_lines
from .llm import INVALID_FORMAT, INVALID_OUT_OF_RANGE, LlmAgent, ScriptedBackend, http_backend_from_env
from .qlearn import load_qtable
from .solver import OptimalAgent, SolvedGame, default_solved

# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class PlyRecord:
    ply: int  # 1-based
    role: Role
    cells_before: tuple[int, ...]
    action_code: int
    action_text: str
    cells_after: tuple[int, ...]
    sum_after: int
    status: TerminalStatus
    annotation: dict | None = None


@dataclass(slots=True)
class GameRecord:
    game_id: int
    seed: int
    p0_name: str
    p1_name: str
    plies: list[PlyRecord]
    outcome: TerminalStatus


def _ply(state: GameState, action: Action, annotation: dict | None = None) -> tuple[PlyRecord, GameState]:
    """One move, checked by ``apply``, as its record and the state it leads to; every ply is built here."""
    role = _ROLES[_seat_to_move(state.moves_played)]  # the callers found the game live, and apply checks it
    nxt, status = apply(state, action)
    ply = PlyRecord(
        ply=nxt.moves_played,
        role=role,
        cells_before=state.cells,
        action_code=encode_action(action),
        action_text=action.text,
        cells_after=nxt.cells,
        sum_after=nxt.total,
        status=status,
        annotation=annotation,
    )
    return ply, nxt


def play_game(p0: AgentPolicy, p1: AgentPolicy, seed: int, game_id: int = 0) -> GameRecord:
    """One full game from the standard opening position; p0 is the Shrinker."""
    rng = RandomSource(seed)
    seats = {Role.SHRINKER: p0, Role.AMPLIFIER: p1}
    state = initial_state()
    status = status_of(state)
    plies: list[PlyRecord] = []
    while not status.is_terminal:
        role = _ROLES[_seat_to_move(state.moves_played)]
        agent = seats[role]
        agent.last_annotation = None
        action = agent.choose(state, role, rng)
        ply, state = _ply(state, action, agent.last_annotation)
        plies.append(ply)
        status = ply.status
    return GameRecord(game_id, seed, p0.name, p1.name, plies, status)


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


@dataclass
class MatchStats:
    """A matchup's counters, which ``add`` adds up one game record at a time.

    Every count comes from a record's outcome and its ply annotations: a ply
    whose annotation holds ``raw_reply`` is an LLM ply, and its ``substituted``,
    ``fallback`` and ``transport_failure`` flags count where truthy.  ``reasons``
    counts games by how they ended, in the order the games first produce each
    reason.  Rates and averages are read from the counts, never stored.
    """

    games: int = 0
    wins_p0: int = 0
    total_plies: int = 0
    llm_plies: int = 0
    invalid_moves: int = 0  # LLM plies whose reply had to be substituted
    fallback_count: int = 0
    transport_failures: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def add(self, record: GameRecord) -> None:
        self.games += 1
        self.wins_p0 += record.outcome.winner is Role.SHRINKER
        self.total_plies += len(record.plies)
        reason = record.outcome.reason.value
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        for p in record.plies:
            ann = p.annotation or {}
            if "raw_reply" in ann:
                self.llm_plies += 1
                self.invalid_moves += bool(ann.get("substituted"))
            self.fallback_count += bool(ann.get("fallback"))
            self.transport_failures += bool(ann.get("transport_failure"))

    wins_p1 = property(lambda self: self.games - self.wins_p0)
    win_rate_p0 = property(lambda self: self.wins_p0 / self.games)
    win_rate_p1 = property(lambda self: self.wins_p1 / self.games)
    avg_moves = property(lambda self: self.total_plies / self.games)
    invalid_fraction = property(lambda self: self.invalid_moves / self.llm_plies if self.llm_plies else 0.0)

    def wins_for(self, role: Role) -> int:
        return self.wins_p0 if role is Role.SHRINKER else self.wins_p1

    def win_rate_for(self, role: Role) -> float:
        return self.win_rate_p0 if role is Role.SHRINKER else self.win_rate_p1


def compute_ci(wins: int, games: int) -> tuple[float, float]:
    """Wilson 95% score interval for a win rate (Wilson 1927), clamped to [0, 1].

    Unlike the normal approximation it keeps a non-zero width at 0 and 100%.
    """
    if games <= 0:
        raise ValueError("games must be positive")
    p = wins / games
    z2 = 1.96 * 1.96
    denom = 1.0 + z2 / games
    centre = (p + z2 / (2 * games)) / denom
    half = 1.96 * math.sqrt(p * (1.0 - p) / games + z2 / (4 * games * games)) / denom
    return (max(0.0, centre - half), min(1.0, centre + half))


# ---------------------------------------------------------------------------
# Matchups
# ---------------------------------------------------------------------------

# A factory builds a fresh agent for each game from that game's seed, so no
# agent state carries over from one game to the next.


@dataclass(frozen=True)
class MatchupSpec:
    p0: object  # agent id string or factory callable
    p1: object
    games: int
    base_seed: int = 0
    label: str = ""


def agent_factory(identifier, role: Role):
    """Turn an agent id into a per-game factory for the seat ``role``; config problems surface here."""
    if callable(identifier):
        return identifier
    if identifier == "random":
        return lambda seed: RandomAgent()
    if identifier == "heuristic":
        return lambda seed: HeuristicAgent()
    if identifier == "optimal":
        solved = default_solved()
        return lambda seed: OptimalAgent(solved)
    if identifier.startswith("rl:"):
        path = identifier[len("rl:") :]
        if not os.path.exists(path):
            raise ConfigError(f"Q-table file not found: {path}")
        if (qtable := load_qtable(path)).role is not role:  # it holds no state of this seat: every ply would fall back
            raise ConfigError(f"Q-table {path} has #role={qtable.role.value} and cannot play the {role.value}")
        return lambda seed: GreedyQAgent(qtable)
    if identifier.startswith("llm:"):
        backend_spec = identifier[len("llm:") :]
        if backend_spec.startswith("scripted="):
            path = backend_spec[len("scripted=") :]
            if not os.path.exists(path):
                raise ConfigError(f"scripted reply file not found: {path}")
            replies = "".join(text_lines(path, "utf-8", ConfigError)).splitlines()
            return lambda seed: LlmAgent(ScriptedBackend(replies), name=identifier)
        if backend_spec == "http":
            backend = http_backend_from_env()
            return lambda seed: LlmAgent(backend, name=f"llm:{backend.model}")
        raise ConfigError(f"unknown llm backend {backend_spec!r}")
    if identifier == "human":
        raise ConfigError("the human agent only plays through 'flux play'")
    raise ConfigError(f"unknown agent id {identifier!r}")


def run_matchup(spec: MatchupSpec, transcript_path: str | None = None) -> MatchStats:
    """Play and count the games in seed order, streaming each record to the transcript if one is asked for."""
    if spec.games <= 0:
        raise ConfigError("a matchup needs at least one game")
    p0_factory = agent_factory(spec.p0, Role.SHRINKER)
    p1_factory = agent_factory(spec.p1, Role.AMPLIFIER)
    stats = MatchStats()

    def played() -> Iterator[GameRecord]:
        for i in range(spec.games):
            seed = spec.base_seed + i
            record = play_game(p0_factory(seed), p1_factory(seed), seed, game_id=i)
            stats.add(record)
            yield record

    if transcript_path:
        write_transcripts(played(), transcript_path)
    else:
        for _ in played():
            pass
    return stats


# ---------------------------------------------------------------------------
# Transcripts: line-delimited JSON, one object per ply plus game/end markers.
# ---------------------------------------------------------------------------


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def record_to_jsonl(record: GameRecord) -> str:
    lines = [
        _dump(
            {
                "type": "game",
                "game": record.game_id,
                "seed": record.seed,
                "p0": record.p0_name,
                "p1": record.p1_name,
                "p0_role": Role.SHRINKER.value,
            }
        )
    ]
    for p in record.plies:
        lines.append(
            _dump(
                {
                    "type": "ply",
                    "game": record.game_id,
                    "ply": p.ply,
                    "role": p.role.value,
                    "cells_before": list(p.cells_before),
                    "action": p.action_code,
                    "action_text": p.action_text,
                    "cells_after": list(p.cells_after),
                    "sum_after": p.sum_after,
                    "status": p.status.label,
                    "annotation": p.annotation,
                }
            )
        )
    lines.append(
        _dump(
            {
                "type": "end",
                "game": record.game_id,
                "winner": record.outcome.winner.value,
                "reason": record.outcome.reason.value,
                "plies": len(record.plies),
            }
        )
    )
    return "".join(lines)


def write_transcripts(records: Iterable[GameRecord], path: str) -> None:
    """The one transcript writer: each record is written as soon as it is drawn."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(record_to_jsonl(record))


def _read_cells(obj: dict, field: str) -> tuple[int, ...]:
    """A transcript row, checked: a list of plain ints (no bools, floats or strings)."""
    cells = obj[field]
    if not isinstance(cells, list) or not all(type(v) is int for v in cells):
        raise ValueError(f"{field} must be a list of integers, got {cells!r}")
    return tuple(cells)


def _read_typed(obj: dict, field: str, kind: type):
    """A scalar transcript field, checked to be exactly ``kind`` (so ``True`` is not an int)."""
    value = obj[field]
    if type(value) is not kind:
        raise ValueError(f"{field} must be {kind.__name__}, got {value!r}")
    return value


def read_transcripts(path: str) -> list[GameRecord]:
    """Every game in a transcript file; a record is built at its ``end`` line.

    Equal plies of one file are one ``PlyRecord``, and equal rows, texts and annotations one object,
    so treat records as read-only values: changing a read ply changes every game that holds it.
    """
    records: list[GameRecord] = []
    header: tuple | None = None  # (game, seed, p0, p1) of the open game, until its end line
    plies: list[PlyRecord] = []
    share = {}.setdefault  # share(v, v) is this file's single copy of the immutable value v
    seen: dict[tuple, PlyRecord] = {}  # a ply's checked fields and annotation repr -> this file's one record
    annotations: dict[str | None, dict | None] = {}  # an annotation's repr -> this file's one dict
    for lineno, line in enumerate(text_lines(path, "utf-8", FormatError), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: line {lineno}: not valid JSON ({exc})") from exc
        try:
            kind = obj["type"]
            if kind == "game":
                if header is not None:
                    raise ValueError(f"game {header[0]} has no end record")
                game, seed = _read_typed(obj, "game", int), _read_typed(obj, "seed", int)
                p0, p1 = _read_typed(obj, "p0", str), _read_typed(obj, "p1", str)
                if obj["p0_role"] != Role.SHRINKER.value:  # player 0 always sits as the Shrinker
                    raise ValueError(f"p0_role must be 'shrinker', got {obj['p0_role']!r}")
                header, plies = (game, seed, share(p0, p0), share(p1, p1)), []
            elif kind not in ("ply", "end"):
                raise KeyError(f"unknown record type {kind!r}")
            elif header is None:
                raise KeyError(f"{kind} record before any game record")
            elif _read_typed(obj, "game", int) != header[0]:
                raise ValueError(f"{kind} record for game {obj['game']} inside game {header[0]}")
            elif kind == "ply":
                annotation = obj.get("annotation")
                if annotation is not None and type(annotation) is not dict:
                    raise ValueError(f"annotation must be an object or null, got {annotation!r}")
                before, after = _read_cells(obj, "cells_before"), _read_cells(obj, "cells_after")
                text = _read_typed(obj, "action_text", str)
                ply = _read_typed(obj, "ply", int)
                if ply < 1:  # numbered from 1: a ply 0 would replay with the seats swapped
                    raise ValueError(f"ply must be at least 1, got {ply}")
                role, code = Role(obj["role"]), _read_typed(obj, "action", int)
                total, status = _read_typed(obj, "sum_after", int), TerminalStatus(_read_typed(obj, "status", str))
                # repr, not ==: True == 1 and 0.0 == -0.0, and == ignores key order
                shown = None if annotation is None else repr(annotation)
                key = (ply, role, before, code, text, after, total, status, shown)
                record = seen.get(key)
                if record is None:
                    record = seen[key] = PlyRecord(
                        ply, role, share(before, before), code, share(text, text), share(after, after), total, status,
                        annotations.setdefault(shown, annotation),
                    )
                plies.append(record)
            else:
                if _read_typed(obj, "plies", int) != len(plies):
                    raise ValueError(f"end record counts {obj['plies']} plies, {len(plies)} were read")
                winner, reason = _read_typed(obj, "winner", str), _read_typed(obj, "reason", str)
                records.append(GameRecord(*header, plies, TerminalStatus(f"{winner}:{reason}")))
                header = None
        except (KeyError, ValueError, TypeError) as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from exc
    if header is not None:
        raise FormatError(f"{path}: game {header[0]} has no end record")
    return records


def _shown(ply: PlyRecord, name: str) -> str:
    """One field of a ply as a mismatch shows it: rows as lists, statuses and roles as their values."""
    value = getattr(ply, name)
    if type(value) is tuple:
        value = list(value)
    elif isinstance(value, (TerminalStatus, Role)):
        value = value.value
    return repr(value)


def verify_record(record: GameRecord) -> list[str]:
    """Replay a record through the rules engine; return human-readable mismatches.

    Each recorded code is decoded on the replayed row and its ply rebuilt by
    ``_ply``, as in play; the two records are compared whole, and the first
    field that differs is reported.  A record that opens at ply 1 is replayed
    from the standard opening position.
    """
    if not record.plies:
        return [f"game {record.game_id}: no plies recorded"]
    first = record.plies[0]
    state = initial_state() if first.ply == 1 else GameState(first.cells_before, first.ply - 1)
    status = status_of(state)
    for p in record.plies:
        prefix = f"game {record.game_id} ply {p.ply}"
        if status.is_terminal:
            return [f"{prefix}: move recorded after the game ended"]
        try:
            replayed, state = _ply(state, decode_action(p.action_code, len(state.cells)), p.annotation)
        except ValueError as exc:
            return [f"{prefix}: {exc}"]
        if replayed != p:
            name = next(f.name for f in fields(PlyRecord) if getattr(p, f.name) != getattr(replayed, f.name))
            return [f"{prefix}: {name} {_shown(p, name)} != replayed {_shown(replayed, name)}"]
        status = replayed.status
    if not status.is_terminal:
        return [f"game {record.game_id}: record stops before the game ends"]
    if record.outcome != status:
        return [f"game {record.game_id}: outcome {record.outcome.label!r} != replayed {status.label!r}"]
    return []


# ---------------------------------------------------------------------------
# Failure tagging
# ---------------------------------------------------------------------------

TAG_FORMAT = "format"
TAG_ROW_MISCOUNT = "row_miscount"
TAG_SUM_BLINDNESS = "sum_blindness"
TAG_MYOPIA = "myopia"

ALL_TAGS = (TAG_SUM_BLINDNESS, TAG_ROW_MISCOUNT, TAG_MYOPIA, TAG_FORMAT)


def _had_safe_alternative(state: GameState, mover: Role, chosen: Action) -> bool:
    for alt in legal_actions(state):
        if alt == chosen:
            continue
        _, st = apply(state, alt)
        if not st.is_terminal or st.winner is mover:
            return True
    return False


def classify_failure(record: GameRecord, solved: SolvedGame | None = None) -> list[tuple[int, str]]:
    """Per-ply failure tags of a record that replays, one ``verify_record`` finds no mismatch in.

    On a record that does not replay it may raise ``ValueError``, say for an action code no row has.
    Grammar failures (``format``) and out-of-range indices (``row_miscount``) come straight from the
    reply annotations, so moves chosen by table or search policies can never carry them.
    ``sum_blindness`` marks a Shrinker amplify that loses on the spot while a safer move existed;
    ``myopia`` marks any non-substituted move that turns a theoretically won position into a lost one.
    """
    if solved is None:
        solved = default_solved()
    tags: list[tuple[int, str]] = []
    for p in record.plies:
        ann = p.annotation or {}
        parse = ann.get("parse")
        if parse == INVALID_FORMAT:
            tags.append((p.ply, TAG_FORMAT))
        elif parse == INVALID_OUT_OF_RANGE:
            tags.append((p.ply, TAG_ROW_MISCOUNT))
        if ann.get("substituted"):
            continue  # the applied move was not the mover's choice
        before = GameState(p.cells_before, p.ply - 1)
        action = decode_action(p.action_code, len(p.cells_before))
        if (
            p.role is Role.SHRINKER
            and action.op is Op.AMPLIFY
            and p.status is TerminalStatus.SUM_EXCEEDED_20
            and _had_safe_alternative(before, p.role, action)
        ):
            tags.append((p.ply, TAG_SUM_BLINDNESS))
        if solved.winner(before) is p.role:
            if p.status.is_terminal:
                after_winner = p.status.winner
            else:
                after_winner = solved.winner(GameState(p.cells_after, p.ply))
            if after_winner is p.role.opponent:
                tags.append((p.ply, TAG_MYOPIA))
    return tags


# ---------------------------------------------------------------------------
# The published benchmark grid
# ---------------------------------------------------------------------------

_RL_S = "@rl_shrinker"
_RL_A = "@rl_amplifier"

# (label, p0 id, p1 id, evaluated role, reference win %, reference avg moves)
BENCHMARK_ROWS = (
    ("Random vs. Random", "random", "random", Role.SHRINKER, 43.3, 12.3),
    ("Heuristic vs. Random", "heuristic", "random", Role.SHRINKER, 77.6, 10.2),
    ("RL vs. Random", _RL_S, "random", Role.SHRINKER, 89.5, 11.1),
    ("RL vs. Heuristic", _RL_S, "heuristic", Role.SHRINKER, 0.0, 13.0),
    ("Random vs. Random", "random", "random", Role.AMPLIFIER, 57.4, 12.0),
    ("Random vs. Heuristic", "random", "heuristic", Role.AMPLIFIER, 99.5, 8.8),
    ("Random vs. RL", "random", _RL_A, Role.AMPLIFIER, 98.8, 11.6),
    ("Heuristic vs. RL", "heuristic", _RL_A, Role.AMPLIFIER, 100.0, 15.0),
)


@dataclass
class BenchmarkRow:
    label: str
    role: Role
    stats: MatchStats
    reference_win_pct: float
    reference_avg_moves: float

    @property
    def win_pct(self) -> float:
        return 100.0 * self.stats.win_rate_for(self.role)

    @property
    def ci_pct(self) -> tuple[float, float]:
        lo, hi = compute_ci(self.stats.wins_for(self.role), self.stats.games)
        return 100.0 * lo, 100.0 * hi


@dataclass
class BenchmarkReport:
    rows: list[BenchmarkRow]
    games: int

    def to_text(self) -> str:
        lines = [
            f"Benchmark grid, {self.games} games per matchup (p0 = Shrinker).",
            "Reference columns show the published baseline values.",
            "",
            f"{'matchup':<24}{'role':<11}{'win%':>7}{'95% CI':>17}"
            f"{'ref%':>8}{'moves':>8}{'ref':>7}",
        ]
        for r in self.rows:
            lo, hi = r.ci_pct
            lines.append(
                f"{r.label:<24}{r.role.value:<11}{r.win_pct:>7.1f}"
                f"{f'[{lo:.1f}, {hi:.1f}]':>17}{r.reference_win_pct:>8.1f}"
                f"{r.stats.avg_moves:>8.1f}{r.reference_avg_moves:>7.1f}"
            )
        return "\n".join(lines)

    def stats_entries(self) -> list[tuple[str, Role, MatchStats]]:
        return [(r.label, r.role, r.stats) for r in self.rows]


def run_benchmark(
    q_shrinker_path: str,
    q_amplifier_path: str,
    games: int = 1000,
    base_seed: int = 0,
    jobs: int = 1,
) -> BenchmarkReport:
    """Run the eight benchmark matchups with trained tables and report both columns."""
    if jobs != 1:  # kept only because perfbench/workloads.py passes jobs=1
        raise ConfigError(f"games are played serially; jobs must be 1, got {jobs}")
    substitutions = {_RL_S: f"rl:{q_shrinker_path}", _RL_A: f"rl:{q_amplifier_path}"}
    rows: list[BenchmarkRow] = []
    for i, (label, p0, p1, role, ref_win, ref_moves) in enumerate(BENCHMARK_ROWS):
        spec = MatchupSpec(
            p0=substitutions.get(p0, p0),
            p1=substitutions.get(p1, p1),
            games=games,
            base_seed=base_seed + i * games,
            label=label,
        )
        rows.append(BenchmarkRow(label, role, run_matchup(spec), ref_win, ref_moves))
    return BenchmarkReport(rows=rows, games=games)


# ---------------------------------------------------------------------------
# Stats CSV
# ---------------------------------------------------------------------------

STATS_CSV_HEADER = "matchup,role,wins,games,win_rate,ci_low,ci_high,avg_moves,invalid_pct"


def write_stats_csv(entries: list[tuple[str, Role, MatchStats]], path: str) -> None:
    """One UTF-8 row per entry; ``csv`` quotes a label that holds a comma, a quote or a newline."""
    import csv  # loaded here, not at start-up: only a run that writes stats.csv needs it
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(STATS_CSV_HEADER + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        for label, role, stats in entries:
            wins = stats.wins_for(role)
            lo, hi = compute_ci(wins, stats.games)
            writer.writerow(
                (label, role.value, wins, stats.games, f"{wins / stats.games:.6f}", f"{lo:.6f}", f"{hi:.6f}",
                 f"{stats.avg_moves:.4f}", f"{100.0 * stats.invalid_fraction:.4f}")
            )
