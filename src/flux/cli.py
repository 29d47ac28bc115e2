"""Command-line front end.

Usage:
    flux train --episodes 30000 --seed 7 -o out/
    flux solve -o out/ [--rational]
    flux tournament --p0 rl:out/q_shrinker.txt --p1 random --games 1000 -o out/
    flux benchmark --q-shrinker out/q_shrinker.txt --q-amplifier out/q_amplifier.txt -o out/
    flux play --as shrinker --opponent heuristic
    flux replay out/transcripts.jsonl
    flux classify out/transcripts.jsonl

Exit codes: 0 success, 1 replay verification mismatch, 2 usage, config, format or file-system error.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable, Iterable
from functools import partial
from typing import TYPE_CHECKING

from .agents import RandomSource
from .engine import Role, apply, initial_state, role_to_move, state_key, status_of
from .errors import ConfigError, FormatError
from .qlearn import CURRICULA, TrainConfig, final_epsilon, save_qtable, train, write_curve
from .solver import default_solved, export_solved, random_win_prob

if TYPE_CHECKING:
    import argparse


def _write_run_cfg(out_dir: str, command: str, params: dict) -> None:
    """Echo the effective configuration next to the artifacts it produced."""
    import json  # loaded here, not at start-up: a set-up that writes no run.cfg never needs these
    from datetime import datetime, timezone
    payload = {
        "command": command,
        "first_mover": Role.SHRINKER.value,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **params,
    }
    with open(os.path.join(out_dir, "run.cfg"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_out(out: str, command: str, params: dict, files: dict[str, Callable[[str], None]]) -> None:
    """Write each file under ``out`` by its writer, which takes the path, then run.cfg, then say what was written."""
    os.makedirs(out, exist_ok=True)
    paths = [os.path.join(out, name) for name in files]
    for path, write in zip(paths, files.values()):
        write(path)
    _write_run_cfg(out, command, params)
    for path in paths:
        print(f"wrote {path}")


def _write_lines(lines: Iterable[str], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def _options(args: argparse.Namespace, names: Iterable[str]) -> dict:
    """The named options, as the keyword arguments or run.cfg entries they become."""
    return {name: getattr(args, name) for name in names}


def cmd_train(args: argparse.Namespace) -> int:
    cfg = TrainConfig(**_options(args, TrainConfig._fields))
    q_shrinker, q_amplifier, curve = train(cfg)
    print(f"trained {cfg.episodes} episodes (seed {cfg.seed}, curriculum {cfg.curriculum})")
    print(f"final epsilon = {final_epsilon(cfg)}")
    print(f"unique states: shrinker {len(q_shrinker.entries)}, amplifier {len(q_amplifier.entries)}")
    _write_out(args.out, "train", {"config": cfg._asdict(), "config_digest": cfg.digest()}, {
        "q_shrinker.txt": partial(save_qtable, q_shrinker),
        "q_amplifier.txt": partial(save_qtable, q_amplifier),
        "training_curve.csv": partial(write_curve, curve),
    })
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    solved = default_solved()
    opening = initial_state()
    p_shrinker = random_win_prob(opening)
    print(
        f"reachable states: shrinker to move {solved.reachable_shrinker}, "
        f"amplifier to move {solved.reachable_amplifier}"
    )
    depth = solved.depth[state_key(opening)]
    print(f"opening position: {solved.winner(opening).value} wins under best play in {depth} plies")
    print(f"shrinker win probability under uniform random play = {p_shrinker!r}")
    if args.rational:
        exact = random_win_prob(opening, exact=True)
        print(f"exact value = {exact}")
    if args.out:
        _write_out(args.out, "solve", {"rational": bool(args.rational)}, {"solved.txt": partial(export_solved, solved)})
    return 0


def _print_matchup(label: str, stats) -> None:
    from .arena import compute_ci
    print(f"{label}: {stats.games} games")
    for role in Role:
        lo, hi = compute_ci(stats.wins_for(role), stats.games)
        print(
            f"  {role.value} wins {stats.wins_for(role)} ({100 * stats.win_rate_for(role):.1f}%, "
            f"95% CI [{100 * lo:.1f}, {100 * hi:.1f}])"
        )
    print(f"  avg moves {stats.avg_moves:.2f}")
    if stats.llm_plies:
        print(
            f"  llm plies {stats.llm_plies}, substituted {stats.invalid_moves} "
            f"({100 * stats.invalid_fraction:.1f}%)"
        )
    if stats.fallback_count:
        print(f"  q-table fallbacks {stats.fallback_count}")
    if stats.transport_failures:
        print(f"  transport failures {stats.transport_failures}")
    print(f"  outcomes: {dict(sorted(stats.reasons.items()))}")


def cmd_tournament(args: argparse.Namespace) -> int:
    from .arena import MatchupSpec, run_matchup, write_stats_csv
    label = args.label or f"{args.p0} vs {args.p1}"
    spec = MatchupSpec(p0=args.p0, p1=args.p1, games=args.games, base_seed=args.seed, label=label)
    if args.transcripts and not args.out:
        raise ConfigError("--transcripts needs an output directory (-o)")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    transcript_path = os.path.join(args.out, "transcripts.jsonl") if args.transcripts else None
    stats = run_matchup(spec, transcript_path=transcript_path)  # streams the transcript as the games are played
    _print_matchup(label, stats)
    if args.out:
        entries = [(label, Role.SHRINKER, stats), (label, Role.AMPLIFIER, stats)]
        files = {"stats.csv": partial(write_stats_csv, entries)}
        if transcript_path:
            files["transcripts.jsonl"] = lambda path: None  # written during play
        params = {**_options(args, ("p0", "p1", "games", "seed", "transcripts")), "label": label}
        _write_out(args.out, "tournament", params, files)
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    from .arena import run_benchmark, write_stats_csv
    report = run_benchmark(args.q_shrinker, args.q_amplifier, games=args.games, base_seed=args.seed)
    text = report.to_text()
    print(text)
    if args.out:
        _write_out(args.out, "benchmark", _options(args, ("q_shrinker", "q_amplifier", "games", "seed")), {
            "stats.csv": partial(write_stats_csv, report.stats_entries()),
            "report.txt": partial(_write_lines, [text]),
        })
    return 0


def cmd_play(args: argparse.Namespace) -> int:
    from .arena import agent_factory
    from .llm import INSTRUCTION, parse_reply, render_observation
    human_role = Role(args.role)
    opponent = agent_factory(args.opponent, human_role.opponent)(args.seed)
    rng = RandomSource(args.seed)
    state = initial_state()
    status = status_of(state)
    shown_rules = False
    while not status.is_terminal:
        role = role_to_move(state)
        if role is human_role:
            print(render_observation(state, role, include_rules=not shown_rules))
            shown_rules = True
            while True:
                try:
                    raw = input("your move> ")
                except EOFError:
                    print("input closed; game abandoned")
                    return 2
                parsed = parse_reply(raw, state)
                if parsed.ok:
                    action = parsed.action
                    break
                print(f"invalid reply ({parsed.invalid}). {INSTRUCTION}")
        else:
            action = opponent.choose(state, role, rng)
            print(f"{role.value} plays {action.text}")
        state, status = apply(state, action)
    print(f"final row: {list(state.cells)} (sum {state.total})")
    print(
        f"{status.winner.value} wins ({status.reason.value}) "
        f"after {state.moves_played} moves"
    )
    return 0


def _replayed(path: str) -> list | None:
    """The records of a transcript file, or ``None`` after printing why it does not replay."""
    from .arena import read_transcripts, verify_record
    records = read_transcripts(path)
    problems = [p for record in records for p in verify_record(record)]
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        print(f"{len(problems)} mismatches across {len(records)} games", file=sys.stderr)
        return None
    return records


def cmd_replay(args: argparse.Namespace) -> int:
    records = _replayed(args.transcript)
    if records is None:
        return 1
    print(f"{len(records)} games verified; every transcript replays exactly")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    from .arena import ALL_TAGS, classify_failure
    records = _replayed(args.transcript)  # tags only boards that happened
    if records is None:
        return 1
    solved = default_solved()
    histogram: dict[str, int] = {}  # by "<role> (<agent>) <tag>", each mover's tags counted from 0 in ALL_TAGS order
    lines: list[str] = []
    for record in records:
        movers = [f"{role.value} ({name}) " for role, name in zip(Role, (record.p0_name, record.p1_name))]
        histogram.update({label: histogram.get(label, 0) for label in (m + tag for m in movers for tag in ALL_TAGS)})
        for ply, tag in classify_failure(record, solved):
            histogram[movers[(ply - 1) % 2] + tag] += 1  # the Shrinker, p0, plays the odd plies
            lines.append(f"game {record.game_id} ply {ply}: {tag}")
    for line in lines:
        print(line)
    print(f"failure histogram over {len(records)} games:")
    for label, n in histogram.items():
        print(f"  {label}: {n}")
    if args.out:
        counts = [f"{label}={n}" for label, n in histogram.items()]
        files = {"failures.txt": partial(_write_lines, lines + counts)}
        _write_out(args.out, "classify", _options(args, ("transcript",)), files)
    return 0


def build_parser() -> argparse.ArgumentParser:
    import argparse  # only a command line is parsed with it, not a set-up
    parser = argparse.ArgumentParser(prog="flux", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train both Q-tables and write them out")
    for name, default in TrainConfig._field_defaults.items():  # one flag per config field, its default and type
        choices = CURRICULA if name == "curriculum" else None
        p.add_argument(f"--{name.replace('_', '-')}", type=type(default), default=default, choices=choices)
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("solve", help="solve the game exactly and report the opening value")
    p.add_argument("--rational", action="store_true", help="also print the exact fraction")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("tournament", help="run one matchup and report stats")
    p.add_argument("--p0", required=True, help="Shrinker agent id")
    p.add_argument("--p1", required=True, help="Amplifier agent id")
    p.add_argument("--games", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--label", default=None)
    p.add_argument("--transcripts", action="store_true")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_tournament)

    p = sub.add_parser("benchmark", help="run the eight-row benchmark grid")
    p.add_argument("--q-shrinker", required=True)
    p.add_argument("--q-amplifier", required=True)
    p.add_argument("--games", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("play", help="play interactively against any agent")
    p.add_argument("--as", dest="role", choices=("shrinker", "amplifier"), default="shrinker")
    p.add_argument("--opponent", default="heuristic")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("replay", help="verify a transcript file against the rules engine")
    p.add_argument("transcript")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("classify", help="tag failures in a transcript file")
    p.add_argument("transcript")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
