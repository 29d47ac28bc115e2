"""Command-line front end.

Usage:
    flux train --episodes 30000 --seed 7 -o out/
    flux solve -o out/ [--rational]
    flux tournament --p0 rl:out/q_shrinker.txt --p1 random --games 1000 -o out/
    flux benchmark --q-shrinker out/q_shrinker.txt --q-amplifier out/q_amplifier.txt -o out/
    flux play --as shrinker --opponent heuristic
    flux replay out/transcripts.jsonl
    flux classify out/transcripts.jsonl

Exit codes: 0 success, 1 replay verification mismatch, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .agents import RandomSource
from .engine import Role, apply, initial_state, role_to_move, state_key, status_of
from .errors import ConfigError, FormatError
from .qlearn import TrainConfig, final_epsilon, save_qtable, train, write_curve
from .solver import default_solved, export_solved, random_win_prob


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


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def cmd_train(args: argparse.Namespace) -> int:
    cfg = TrainConfig(
        episodes=args.episodes,
        seed=args.seed,
        alpha=args.alpha,
        gamma=args.gamma,
        eps_start=args.eps_start,
        eps_min=args.eps_min,
        eps_decay=args.eps_decay,
        curriculum=args.curriculum,
        log_every=args.log_every,
    )
    q_shrinker, q_amplifier, curve = train(cfg)
    out = _ensure_out(args.out)
    shrinker_path = os.path.join(out, "q_shrinker.txt")
    amplifier_path = os.path.join(out, "q_amplifier.txt")
    curve_path = os.path.join(out, "training_curve.csv")
    save_qtable(q_shrinker, shrinker_path)
    save_qtable(q_amplifier, amplifier_path)
    write_curve(curve, curve_path)
    _write_run_cfg(out, "train", {"config": cfg.__dict__, "config_digest": cfg.digest()})
    print(f"trained {cfg.episodes} episodes (seed {cfg.seed}, curriculum {cfg.curriculum})")
    print(f"final epsilon = {final_epsilon(cfg)}")
    print(f"unique states: shrinker {len(q_shrinker.entries)}, amplifier {len(q_amplifier.entries)}")
    for path in (shrinker_path, amplifier_path, curve_path):
        print(f"wrote {path}")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    solved = default_solved()
    opening = initial_state()
    p_shrinker = random_win_prob(opening)
    print(
        f"reachable states: shrinker to move {solved.reachable_shrinker}, "
        f"amplifier to move {solved.reachable_amplifier}"
    )
    key = state_key(opening)
    print(
        f"opening position: {solved.value[key].value} wins under best play "
        f"in {solved.depth[key]} plies"
    )
    print(f"shrinker win probability under uniform random play = {p_shrinker!r}")
    if args.rational:
        exact = random_win_prob(opening, exact=True)
        print(f"exact value = {exact}")
    if args.out:
        out = _ensure_out(args.out)
        export_path = os.path.join(out, "solved.txt")
        export_solved(solved, export_path)
        _write_run_cfg(out, "solve", {"rational": bool(args.rational)})
        print(f"wrote {export_path}")
    return 0


def _print_matchup(label: str, stats) -> None:
    from .arena import compute_ci
    lo0, hi0 = compute_ci(stats.wins_p0, stats.games)
    lo1, hi1 = compute_ci(stats.wins_p1, stats.games)
    print(f"{label}: {stats.games} games")
    print(
        f"  shrinker wins {stats.wins_p0} ({100 * stats.win_rate_p0:.1f}%, "
        f"95% CI [{100 * lo0:.1f}, {100 * hi0:.1f}])"
    )
    print(
        f"  amplifier wins {stats.wins_p1} ({100 * stats.win_rate_p1:.1f}%, "
        f"95% CI [{100 * lo1:.1f}, {100 * hi1:.1f}])"
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
    print(f"  outcomes: {stats.reasons}")


def cmd_tournament(args: argparse.Namespace) -> int:
    from .arena import MatchupSpec, run_matchup, write_stats_csv
    label = args.label or f"{args.p0} vs {args.p1}"
    spec = MatchupSpec(p0=args.p0, p1=args.p1, games=args.games, base_seed=args.seed, label=label)
    transcript_path = None
    out = None
    if args.out:
        out = _ensure_out(args.out)
        if args.transcripts:
            transcript_path = os.path.join(out, "transcripts.jsonl")
    elif args.transcripts:
        raise ConfigError("--transcripts needs an output directory (-o)")
    stats = run_matchup(spec, transcript_path=transcript_path)
    _print_matchup(label, stats)
    if out:
        csv_path = os.path.join(out, "stats.csv")
        write_stats_csv(
            [(label, Role.SHRINKER, stats), (label, Role.AMPLIFIER, stats)], csv_path
        )
        _write_run_cfg(
            out,
            "tournament",
            {
                "p0": args.p0,
                "p1": args.p1,
                "games": args.games,
                "seed": args.seed,
                "transcripts": bool(args.transcripts),
            },
        )
        print(f"wrote {csv_path}")
        if transcript_path:
            print(f"wrote {transcript_path}")
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    from .arena import run_benchmark, write_stats_csv
    report = run_benchmark(args.q_shrinker, args.q_amplifier, games=args.games, base_seed=args.seed)
    text = report.to_text()
    print(text)
    if args.out:
        out = _ensure_out(args.out)
        csv_path = os.path.join(out, "stats.csv")
        report_path = os.path.join(out, "report.txt")
        write_stats_csv(report.stats_entries(), csv_path)
        with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
        _write_run_cfg(
            out,
            "benchmark",
            {
                "q_shrinker": args.q_shrinker,
                "q_amplifier": args.q_amplifier,
                "games": args.games,
                "seed": args.seed,
            },
        )
        print(f"wrote {csv_path}")
        print(f"wrote {report_path}")
    return 0


def cmd_play(args: argparse.Namespace) -> int:
    from .arena import agent_factory
    from .llm import INSTRUCTION, parse_reply, render_observation
    human_role = Role(args.role)
    opponent = agent_factory(args.opponent)(args.seed)
    rng = RandomSource(args.seed)
    state = initial_state()
    status = status_of(state)
    shown_rules = False
    while not status.is_terminal:
        role = role_to_move(state)
        if role is human_role:
            obs = render_observation(state, role)
            print(obs.as_text(include_rules=not shown_rules))
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
    histogram = {tag: 0 for tag in ALL_TAGS}
    lines: list[str] = []
    for record in records:
        for ply, tag in classify_failure(record, solved):
            histogram[tag] += 1
            lines.append(f"game {record.game_id} ply {ply}: {tag}")
    for line in lines:
        print(line)
    print(f"failure histogram over {len(records)} games:")
    for tag in ALL_TAGS:
        print(f"  {tag}: {histogram[tag]}")
    if args.out:
        out = _ensure_out(args.out)
        path = os.path.join(out, "failures.txt")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
            for tag in ALL_TAGS:
                fh.write(f"{tag}={histogram[tag]}\n")
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flux", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train both Q-tables and write them out")
    p.add_argument("--episodes", type=int, default=30_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.2)
    p.add_argument("--gamma", type=float, default=0.92)
    p.add_argument("--eps-start", type=float, default=1.0)
    p.add_argument("--eps-min", type=float, default=0.05)
    p.add_argument("--eps-decay", type=float, default=0.9997)
    p.add_argument("--curriculum", choices=("roundrobin", "block"), default="roundrobin")
    p.add_argument("--log-every", type=int, default=1)
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
    except (ConfigError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
