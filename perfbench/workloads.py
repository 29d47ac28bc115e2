"""The four benchmark workloads and the checks on their outputs.

Every round of a workload repeats the same work, fixed by the seed, so the
counts a round returns must repeat exactly; ``run.py`` compares them across
rounds and across runs.  A round calls the layers only through ``wrap``,
which hands back the plain public function when tracing is off and a
span-recording wrapper when it is on.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter, perf_counter_ns

from flux import agents, arena, engine, llm, qlearn, solver
from flux.engine import Role

# Frozen oracles.  The float and the counts are the acceptance suite's; the
# fraction and the digest were computed once from the exact solver.
EXACT_RANDOM_PLAY = 0.29231361218346746
EXACT_RANDOM_PLAY_FRACTION = Fraction(
    "156377851717220664978677083/534966026895360000000000000"
)
LIVE_BY_MOVER = (4426, 3984)
TERMINAL_STATES = 8203
SOLVED_TXT_SHA256 = "c0f2cea6b3ecc7969be53ce7ee2e4a94ba4bcbcd80dca66ed4baed857ed9cc78"
LLM_SUBSTITUTION = (0.5, 0.05)  # target fraction and tolerance, as in criterion 7
# Sampled estimates must lie within this many standard errors of the exact
# value.  At 3 a correct program fails one seeded check in 370 (montecarlo
# seed 14 does), and a full set of benchmark runs makes about seventy such
# checks; at 4 the chance is one in 15,787 per check.  The z-scores are shown.
Z_GATE = 4.0
GARBAGE_REPLY = "I refuse to answer."


def wrap(tracer, name: str, fn):
    """``fn`` as a round should call it: plain, or in a span when ``tracer`` is set."""
    return fn if tracer is None else tracer.wrap(name, fn)


class Checks:
    """Checked operations and failures; ``error_rate`` is failed / attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def tally(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.messages) < 50:
            self.messages.append(f"{what}: {failed} of {attempted} failed")

    def check(self, ok: bool, what: str) -> None:
        self.tally(1, 0 if ok else 1, what)


@dataclass
class Round:
    games: int  # complete games played, training episodes included
    plies: int  # plies of those games
    counts: dict  # deterministic for a seed
    outputs: dict = field(default_factory=dict)  # checked after timing, then dropped
    extra: dict = field(default_factory=dict)  # name: (value, unit), shown but not gated
    game_ns: list = field(default_factory=list)  # per-game latency, traced rounds only
    seconds: float = 0.0  # set by the runner
    summary: dict | None = None  # per-span-name totals, traced rounds only
    span_count: int = 0


@dataclass
class Env:
    seed: int
    workdir: str
    solved: solver.SolvedGame  # from default_solved(), as in set-up
    fixture: qlearn.QTable  # the committed Amplifier table


def rule_winner(cells: tuple[int, ...], moves: int) -> Role | None:
    """The winner the rules give a position, derived without the engine; None if live."""
    if sum(cells) > 20:
        return Role.AMPLIFIER
    if len(cells) <= 1:
        return Role.SHRINKER
    if moves >= 15:
        return Role.SHRINKER if len(cells) < 3 else Role.AMPLIFIER
    return None


def z_score(wins: int, games: int, p: float) -> float:
    """How many standard errors a win count lies from its exact expectation."""
    return (wins / games - p) / math.sqrt(p * (1 - p) / games)


def sha256_files(*paths: str) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


class Enumerate:
    """Solver tables built and queried: the whole game, then optimal playouts."""

    PLAYOUTS = 1000

    def __init__(self, env: Env) -> None:
        self.seed = env.seed
        self.solved_path = os.path.join(env.workdir, "solved.txt")

    def run_round(self, tracer) -> Round:
        reach = wrap(tracer, "solver.reachable_states", solver.reachable_states)()
        solved = wrap(tracer, "solver.solve", solver.solve)()
        table = wrap(tracer, "solver.random_win_table", solver.random_win_table)()
        exact = wrap(tracer, "solver.random_win_table_exact", solver.random_win_table)(exact=True)
        wrap(tracer, "solver.export_solved", solver.export_solved)(solved, self.solved_path)
        policy = wrap(tracer, "solver.optimal_policy", solver.optimal_policy)
        apply = wrap(tracer, "engine.apply", engine.apply)
        rng = random.Random(self.seed)
        plies = mismatches = 0
        for _ in range(self.PLAYOUTS):
            state = reach.ongoing[rng.randrange(len(reach.ongoing))]
            predicted = solved.value[engine.state_key(state)]
            status = engine.ONGOING
            while not status.is_terminal:
                state, status = apply(state, policy(solved, state))
                plies += 1
            mismatches += status.winner is not predicted
        return Round(
            games=self.PLAYOUTS,
            plies=plies,
            counts={"engine.plies": plies, "mismatches": mismatches},
            outputs={"reach": reach, "solved": solved, "table": table, "exact": exact},
        )

    def check_round(self, rnd: Round, checks: Checks) -> None:
        out = rnd.outputs
        reach, solved, table, exact = out["reach"], out["solved"], out["table"], out["exact"]
        opening = engine.state_key(engine.initial_state())
        by_mover = sum(1 for s in reach.ongoing if s.moves_played % 2 == 0)
        checks.check(
            (by_mover, len(reach.ongoing) - by_mover) == LIVE_BY_MOVER
            and len(reach.terminal) == TERMINAL_STATES,
            "reachable_states counts",
        )
        checks.check(
            (solved.reachable_shrinker, solved.reachable_amplifier) == LIVE_BY_MOVER
            and solved.value[opening] is Role.AMPLIFIER,
            "solve counts and opening value",
        )
        checks.check(table[opening] == EXACT_RANDOM_PLAY, "random_win_table opening value")
        checks.check(
            exact[opening] == EXACT_RANDOM_PLAY_FRACTION
            and exact.keys() == table.keys()
            and all(abs(float(exact[k]) - table[k]) <= 1e-12 for k in table),
            "exact table agrees with the float table",
        )
        checks.check(sha256_files(self.solved_path) == SOLVED_TXT_SHA256, "solved.txt digest")
        checks.tally(self.PLAYOUTS, rnd.counts["mismatches"], "optimal playouts end as solved")


class Montecarlo:
    """Uniform-random playouts from the opening, straight through the engine."""

    GAMES = 5000

    def __init__(self, env: Env) -> None:
        self.seed = env.seed

    def run_round(self, tracer) -> Round:
        legal_actions = wrap(tracer, "engine.legal_actions", engine.legal_actions)
        apply = wrap(tracer, "engine.apply", engine.apply)
        rng = random.Random(self.seed)
        wins = plies = wrong = 0
        for _ in range(self.GAMES):
            state = engine.initial_state()
            status = engine.status_of(state)
            while not status.is_terminal:
                actions = legal_actions(state)
                state, status = apply(state, actions[rng.randrange(len(actions))])
            wins += status.winner is Role.SHRINKER
            plies += state.moves_played
            wrong += rule_winner(state.cells, state.moves_played) is not status.winner
        return Round(
            games=self.GAMES,
            plies=plies,
            counts={"engine.plies": plies, "wins": wins, "wrong": wrong},
            extra={"montecarlo.z": (z_score(wins, self.GAMES, EXACT_RANDOM_PLAY), "sigma")},
        )

    def check_round(self, rnd: Round, checks: Checks) -> None:
        checks.tally(self.GAMES, rnd.counts["wrong"], "final winner as the rules give it")
        z = rnd.extra["montecarlo.z"][0]
        checks.check(abs(z) <= Z_GATE, f"Monte Carlo estimate {z:+.2f} sigma from the exact value")


class TrainEval:
    """The standard training recipe, a table round trip, then the benchmark grid."""

    GRID_GAMES = 1000

    def __init__(self, env: Env) -> None:
        self.seed = env.seed
        self.paths = (
            os.path.join(env.workdir, "q_shrinker.txt"),
            os.path.join(env.workdir, "q_amplifier.txt"),
        )
        reach = solver.reachable_states()
        self.live = {role: reach.ongoing_keys(role) for role in Role}

    def run_round(self, tracer) -> Round:
        cfg = qlearn.TrainConfig(seed=self.seed)
        t0 = perf_counter()
        q_s, q_a, curve = wrap(tracer, "qlearn.train", qlearn.train)(cfg)
        t1 = perf_counter()
        save = wrap(tracer, "qlearn.save_qtable", qlearn.save_qtable)
        load = wrap(tracer, "qlearn.load_qtable", qlearn.load_qtable)
        for table, path in zip((q_s, q_a), self.paths):
            save(table, path)
        loaded = [load(path) for path in self.paths]
        t2 = perf_counter()
        report = wrap(tracer, "arena.run_benchmark", arena.run_benchmark)(
            *self.paths, games=self.GRID_GAMES, base_seed=self.seed * 100_000, jobs=1
        )
        t3 = perf_counter()
        train_plies = sum(p.plies for p in curve)
        grid_plies = sum(r.stats.total_plies for r in report.rows)
        return Round(
            games=cfg.episodes + len(report.rows) * self.GRID_GAMES,
            plies=train_plies + grid_plies,
            counts={
                "qlearn.train_plies": train_plies,
                "qlearn.table_states": len(q_s.entries) + len(q_a.entries),
                "arena.grid_plies": grid_plies,
                "tables_sha256": sha256_files(*self.paths),
                "grid_wins": [r.stats.wins_p0 for r in report.rows],
            },
            outputs={"cfg": cfg, "tables": (q_s, q_a), "loaded": loaded, "curve": curve,
                     "report": report},
            extra={
                "episodes_per_s": (cfg.episodes / (t1 - t0), "episodes/s"),
                "grid_games_per_s": (len(report.rows) * self.GRID_GAMES / (t3 - t2), "games/s"),
                # criterion 5's first link, RL-Shrinker minus heuristic-Shrinker
                # win %: reported, not gated, because it is red at the seed
                "qlearn.strength_gap_pct": (
                    report.rows[2].win_pct - report.rows[1].win_pct, "%"),
                "grid.random_shrinker.z": (
                    z_score(report.rows[0].stats.wins_p0, self.GRID_GAMES, EXACT_RANDOM_PLAY),
                    "sigma"),
                "grid.random_amplifier.z": (
                    z_score(report.rows[4].stats.wins_p1, self.GRID_GAMES, 1 - EXACT_RANDOM_PLAY),
                    "sigma"),
            },
        )

    def check_round(self, rnd: Round, checks: Checks) -> None:
        out = rnd.outputs
        cfg, (q_s, q_a), report = out["cfg"], out["tables"], out["report"]
        bound = 1.0 / (1.0 - cfg.gamma)
        checks.check(out["curve"][-1].epsilon == cfg.eps_min, "final epsilon")
        for table, role in ((q_s, Role.SHRINKER), (q_a, Role.AMPLIFIER)):
            checks.check(
                1000 <= len(table.entries) <= 8000 and table.entries.keys() <= self.live[role],
                f"{role.value} table covers live states only",
            )
            checks.check(
                all(-bound <= v <= bound for row in table.entries.values() for v in row.values()),
                f"{role.value} table values within 1/(1-gamma)",
            )
        for table, back in zip((q_s, q_a), out["loaded"]):
            checks.check(
                (back.role, back.episodes, back.config_digest, back.entries)
                == (table.role, table.episodes, table.config_digest, table.entries),
                f"{table.role.value} table survives save and load",
            )
        for seat in ("shrinker", "amplifier"):
            z = rnd.extra[f"grid.random_{seat}.z"][0]
            checks.check(abs(z) <= Z_GATE, f"grid Random vs. Random ({seat}) {z:+.2f} sigma off")


def scripted_llm_replies(seed: int) -> list[str]:
    """Half garbage, half ``DRAIN 0``: the noisy chat model of criterion 7."""
    rng = random.Random(seed ^ 0xA5A5)
    return [GARBAGE_REPLY if rng.random() < 0.5 else "DRAIN 0" for _ in range(20)]


class Transcripts:
    """Matchups written to transcripts, then read, replayed and classified."""

    GAMES = 500  # per matchup

    def __init__(self, env: Env) -> None:
        self.seed = env.seed
        self.solved = solved = env.solved
        fixture = env.fixture
        self.matchups = (
            ("heuristic-vs-rl", ("heuristic", lambda s: agents.HeuristicAgent()),
             ("rl", lambda s: agents.GreedyQAgent(fixture))),
            ("llm-vs-rl",
             ("llm", lambda s: llm.LlmAgent(llm.ScriptedBackend(scripted_llm_replies(s)),
                                            name="llm:scripted-noise")),
             ("rl", lambda s: agents.GreedyQAgent(fixture))),
            ("optimal-vs-random", ("optimal", lambda s: solver.OptimalAgent(solved)),
             ("random", lambda s: agents.RandomAgent())),
        )
        self.paths = [os.path.join(env.workdir, f"{label}.jsonl") for label, _, _ in self.matchups]

    @staticmethod
    def _factory(tracer, kind: str, make, marks: list | None):
        """Per-game factory; when traced, wraps ``choose`` and marks each game's start."""
        if tracer is None:
            return make

        def build(seed):
            if marks is not None:
                marks.append(perf_counter_ns())
            agent = make(seed)
            agent.choose = wrap(tracer, f"agents.{kind}.choose", agent.choose)
            if kind == "llm":
                agent.backend.complete = wrap(tracer, "llm.complete", agent.backend.complete)
            return agent

        return build

    def run_round(self, tracer) -> Round:
        run_matchup = wrap(tracer, "arena.run_matchup", arena.run_matchup)
        read = wrap(tracer, "arena.read_transcripts", arena.read_transcripts)
        verify = wrap(tracer, "arena.verify_record", arena.verify_record)
        classify = wrap(tracer, "arena.classify_failure", arena.classify_failure)
        stats, game_ns, records, problems, tags = [], [], [], [], []
        matchups = zip(self.matchups, self.paths)
        for k, ((label, (k0, make0), (k1, make1)), path) in enumerate(matchups):
            marks: list[int] = []
            spec = arena.MatchupSpec(
                p0=self._factory(tracer, k0, make0, marks),
                p1=self._factory(tracer, k1, make1, None),
                games=self.GAMES,
                base_seed=self.seed * 100_000 + k * self.GAMES,
                label=label,
            )
            stats.append(run_matchup(spec, transcript_path=path))
            if marks:
                marks.append(perf_counter_ns())
                game_ns.extend(b - a for a, b in zip(marks, marks[1:]))
        for path in self.paths:
            recs = read(path)
            records.append(recs)
            problems.append([verify(r) for r in recs])
            tags.append([classify(r, self.solved) for r in recs])

        counts = {
            "arena.transcript_bytes": sum(os.path.getsize(p) for p in self.paths),
            "transcripts_sha256": sha256_files(*self.paths),
            "tags": sorted({tag for per_file in tags for t in per_file for _, tag in t}),
            "tag_count": sum(len(t) for per_file in tags for t in per_file),
        }
        notes = [p.annotation or {} for recs in records for r in recs for p in r.plies]
        counts["llm.plies"] = sum("raw_reply" in a for a in notes)
        counts["llm.substituted"] = sum(bool(a.get("substituted")) for a in notes)
        counts["llm.transport_failures"] = sum(bool(a.get("transport_failure")) for a in notes)
        counts["agents.rl.fallbacks"] = sum(bool(a.get("fallback")) for a in notes)
        counts["agents.rl.plies"] = sum(
            1 for recs in records[:2] for r in recs for p in r.plies if p.role is Role.AMPLIFIER
        )
        counts["arena.verify_mismatches"] = sum(len(p) for per_file in problems for p in per_file)
        return Round(
            games=sum(s.games for s in stats),
            plies=sum(s.total_plies for s in stats),
            counts=counts,
            outputs={"stats": stats, "records": records, "problems": problems, "tags": tags},
            game_ns=game_ns,
        )

    def check_round(self, rnd: Round, checks: Checks) -> None:
        out, counts = rnd.outputs, rnd.counts
        for (label, _, _), stats, recs, problems, tags in zip(
            self.matchups, out["stats"], out["records"], out["problems"], out["tags"]
        ):
            checks.check(len(recs) == self.GAMES == stats.games, f"{label}: every game read back")
            checks.tally(len(problems), sum(1 for p in problems if p), f"{label}: games replay")
            if not label.startswith("llm"):
                checks.check(
                    all(tag not in (arena.TAG_FORMAT, arena.TAG_ROW_MISCOUNT)
                        for t in tags for _, tag in t),
                    f"{label}: no reply tags without a chat model",
                )
        llm_stats = out["stats"][1]
        frac = counts["llm.substituted"] / counts["llm.plies"]
        target, tolerance = LLM_SUBSTITUTION
        checks.check(abs(frac - target) <= tolerance, f"substitution fraction {frac:.3f}")
        checks.check(
            (llm_stats.llm_plies, llm_stats.invalid_moves)
            == (counts["llm.plies"], counts["llm.substituted"]),
            "matchup stats agree with the transcripts",
        )
        checks.check(
            sum(s.fallback_count for s in out["stats"]) == counts["agents.rl.fallbacks"],
            "fallback count agrees with the transcripts",
        )


WORKLOADS = {
    "enumerate": Enumerate,
    "montecarlo": Montecarlo,
    "train_eval": TrainEval,
    "transcripts": Transcripts,
}
