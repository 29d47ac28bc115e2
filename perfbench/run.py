"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  For ``--seconds``, rounds of the workload
repeat, with set-ups in fresh interpreters (``setup_probe.py``) spread among
them; each round does the same seeded work, is timed on its own, and has its
outputs checked.  With ``--trace 0`` the last line holds
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` rounds
alternate untraced and traced, and it holds the per-layer metrics, round
throughput and tracing overhead included.  Lines before it are for people: every metric with its
unit, then ``# meta`` (run metadata) and ``# extra`` (metrics shown but not
gated).  Files go to ``.bench_build/perfbench`` in the checkout; a run's
tables and transcripts sit in a directory of their own there, removed when
the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from statistics import median
from time import perf_counter

from spans import Tracer, percentile, summarize, tail_percentile, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE = HERE / "fixtures" / "q_amplifier.txt"
SETUP_PROBES = 11  # timed fresh-interpreter set-ups per run, after one warm-up
TAIL_ROUNDS = 2  # traced rounds whose per-game latencies give the p50 and the tail
KEEP_SPANS = 200_000  # raw spans written out per traced run; the rest only counted


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def probe_setup() -> tuple[float, dict]:
    """One set-up in a fresh interpreter: (whole-process seconds, its own breakdown)."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(FIXTURE)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        fail(f"set-up failed:\n{proc.stderr}")
    return elapsed, json.loads(proc.stdout.splitlines()[-1])


def tree_digest() -> str:
    """Fingerprint of the code and data that decide the deterministic counts."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.joinpath("flux").rglob("*.py"), *HERE.glob("*.py"), FIXTURE]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly; None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, started: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": started,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_flux_lines": sum(
            len(p.read_bytes().splitlines()) for p in SRC.joinpath("flux").rglob("*.py")
        ),
    }


def end_to_end(probes) -> dict:
    return {
        "setup_s": median(p[0] for p in probes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def throughput(rounds) -> dict:
    """Median untraced round: its seconds, and its plies and games per second."""
    untraced = [r for r in rounds if r.summary is None]
    return {
        "round.wall_s": (median(r.seconds for r in untraced), "s"),
        "round.plies_per_s": (median(r.plies / r.seconds for r in untraced), "plies/s"),
        "round.games_per_s": (median(r.games / r.seconds for r in untraced), "games/s"),
    }


def per_layer(rounds, probes) -> dict:
    traced = [r for r in rounds if r.summary is not None]
    untraced = [r for r in rounds if r.summary is None]
    counts = rounds[0].counts

    def spans(name):
        return [r.summary.get(name, (0, 0, 0)) for r in traced]

    def seconds(name):
        return median(s[1] for s in spans(name)) / 1e9

    def us_per_call(name, column=1):
        calls = sum(s[0] for s in spans(name))
        return sum(s[column] for s in spans(name)) / calls / 1e3 if calls else 0.0

    def ms_per_1k_games(name, column=1):
        return median(s[column] / 1e6 / r.games * 1000 for s, r in zip(spans(name), traced))

    def ratio(num, den):
        return num / den if den else 0.0

    # A fixed number of rounds, so the sample and the percentile reported do
    # not change with how many rounds fit into the run.
    games_us = sorted(ns / 1e3 for r in traced[:TAIL_ROUNDS] for ns in r.game_ns)
    tail = tail_percentile(len(games_us))
    traced_s = median(r.seconds for r in traced)
    untraced_s = median(r.seconds for r in untraced)
    values = {
        "engine.plies": counts.get("engine.plies", 0),
        "engine.legal_actions.us_per_call": us_per_call("engine.legal_actions"),
        "engine.apply.us_per_call": us_per_call("engine.apply"),
        "engine.busy_frac": median(
            ratio(r.summary.get("engine.legal_actions", (0, 0))[1]
                  + r.summary.get("engine.apply", (0, 0))[1], r.summary["round"][1])
            for r in traced
        ),
        "solver.optimal_policy.us_per_call": us_per_call("solver.optimal_policy"),
        "solver.optimal_policy.calls": median(s[0] for s in spans("solver.optimal_policy")),
        "qlearn.train_plies": counts.get("qlearn.train_plies", 0),
        "qlearn.table_states": counts.get("qlearn.table_states", 0),
        "qlearn.strength_gap_pct": rounds[0].extra.get("qlearn.strength_gap_pct", (0.0,))[0],
        "agents.rl.fallbacks": counts.get("agents.rl.fallbacks", 0),
        "agents.rl.fallback_frac": ratio(
            counts.get("agents.rl.fallbacks", 0), counts.get("agents.rl.plies", 0)
        ),
        "arena.grid_plies": counts.get("arena.grid_plies", 0),
        "arena.run_matchup.self_ms_per_1k_games": ms_per_1k_games("arena.run_matchup", 2),
        "arena.transcript_bytes": counts.get("arena.transcript_bytes", 0),
        "arena.game_samples": len(games_us),
        "arena.game_us_p50": percentile(games_us, "50") if games_us else 0.0,
        "arena.game_us_tail": percentile(games_us, tail) if tail else 0.0,
        "arena.game_us_tail_pct": float(tail) if tail else 0.0,
        "arena.verify_mismatches": counts.get("arena.verify_mismatches", 0),
        "llm.choose.self_us_per_call": us_per_call("agents.llm.choose", 2),
        "llm.plies": counts.get("llm.plies", 0),
        "llm.substituted_frac": ratio(counts.get("llm.substituted", 0), counts.get("llm.plies", 0)),
        "llm.transport_failures": counts.get("llm.transport_failures", 0),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
        "trace.spans": median(r.span_count for r in traced),
    }
    for name in ("solver.reachable_states", "solver.solve", "solver.random_win_table",
                 "solver.random_win_table_exact", "solver.export_solved", "qlearn.train",
                 "qlearn.save_qtable", "qlearn.load_qtable", "arena.run_benchmark"):
        values[f"{name}.s"] = seconds(name)
    for agent in ("random", "heuristic", "rl", "optimal", "llm"):
        values[f"agents.{agent}.choose_us_per_call"] = us_per_call(f"agents.{agent}.choose")
    for name in ("arena.read_transcripts", "arena.verify_record", "arena.classify_failure"):
        values[f"{name}.ms_per_1k_games"] = ms_per_1k_games(name)
    for name in ("cli.import_s", "solver.default_solved.s", "qlearn.load_fixture.s"):
        values[name] = median(p[1][name] for p in probes)
    values.update((name, value) for name, (value, _) in throughput(rounds).items())
    return values


def extras(rounds, checks) -> dict:
    """Metrics shown but not gated, as ``name: (value, unit)``."""
    untraced = [r for r in rounds if r.summary is None]
    out = {"error_rate": (checks.failed / checks.attempted, "failed/checked")}
    out.update(throughput(rounds))
    for name, (_, unit) in untraced[0].extra.items():
        out[name] = (median(r.extra[name][0] for r in untraced), unit)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def show(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:>16.6f} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    # Exit through SystemExit on SIGTERM, so a running probe is killed and
    # this run's scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    catalogue_path = ROOT / "BENCHMARK.json"
    for needed in (SRC / "flux" / "__init__.py", catalogue_path, FIXTURE):
        if not needed.is_file():
            fail(f"{needed} is missing; run from the root of a full checkout")
    catalogue = json.loads(catalogue_path.read_text())
    sys.path.insert(0, str(SRC))
    import flux
    import workloads

    if Path(flux.__file__).resolve().parent != SRC / "flux":
        fail(f"imported flux from {flux.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    probe_setup()  # warm-up: compiles bytecode once per checkout
    workdir = ROOT / ".bench_build" / "perfbench"
    scratch = workdir / f"{args.workload}-{os.getpid()}"  # this run's tables and transcripts
    scratch.mkdir(parents=True)
    try:
        return measure(args, catalogue, started, workdir, scratch)
    finally:
        shutil.rmtree(scratch)


def measure(args, catalogue, started, workdir, scratch) -> int:
    from flux.qlearn import load_qtable
    from flux.solver import default_solved
    from workloads import WORKLOADS, Checks, Env

    env = Env(args.seed, str(scratch), default_solved(), load_qtable(str(FIXTURE)))
    workload = WORKLOADS[args.workload](env)
    checks = Checks()

    probes, rounds = [], []
    kept_spans = []
    kept = dropped_spans = 0
    min_rounds = 4 if args.trace else 2  # two to compare counts; two of each kind when traced
    start = perf_counter()
    deadline = start + args.seconds
    while len(rounds) < min_rounds or perf_counter() < deadline:
        # Set-ups keep pace with the run rather than going first, so that
        # setup_s sees the host as the whole run does, not its first seconds.
        due = max(1, math.ceil(SETUP_PROBES * (perf_counter() - start) / args.seconds))
        while len(probes) < min(due, SETUP_PROBES):
            probes.append(probe_setup())
        tracer = Tracer() if args.trace and len(rounds) % 2 else None
        t0 = perf_counter()
        rnd = workload.run_round(tracer) if tracer is None else tracer.run(
            "round", workload.run_round, tracer)
        rnd.seconds = perf_counter() - t0
        workload.check_round(rnd, checks)
        rnd.outputs = None
        rnd.counts = json.loads(json.dumps(rnd.counts, sort_keys=True))
        if rounds:
            checks.check(rnd.counts == rounds[0].counts, "counts repeat across rounds")
        if tracer is not None:
            rnd.summary = summarize(tracer.spans)
            rnd.span_count = len(tracer.spans)
            if kept + rnd.span_count <= KEEP_SPANS:
                kept_spans.append((f"{args.workload}:{args.seed}:{len(rounds)}", tracer.spans))
                kept += rnd.span_count
            else:
                dropped_spans += rnd.span_count
        rounds.append(rnd)
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup())

    record = workdir / "determinism" / f"{args.workload}-{args.seed}-{tree_digest()[:16]}.json"
    if record.is_file():
        earlier = json.loads(record.read_text())
        checks.check(earlier == rounds[0].counts, "counts repeat across runs")
    else:
        record.parent.mkdir(exist_ok=True)
        record.write_text(json.dumps(rounds[0].counts, sort_keys=True))

    meta = metadata(args, started)
    meta["rounds"] = len(rounds)
    if args.trace:
        values = per_layer(rounds, probes)
        section = catalogue["per_layer"]
        spans_path = workdir / f"spans-{args.workload}-{args.seed}.jsonl"
        write_spans(str(spans_path), {**meta, "dropped_spans": dropped_spans}, kept_spans)
        meta["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        values = end_to_end(probes)
        section = catalogue["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in section}

    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(rounds)} rounds, "
          f"{checks.attempted} checked operations, {checks.failed} failed")
    print("  round seconds: " + " ".join(
        f"{r.seconds:.3f}{'t' if r.summary is not None else ''}" for r in rounds))
    extra = extras(rounds, checks)
    show(metrics)
    show({name: m for name, m in extra.items() if name not in metrics})
    print("# meta " + json.dumps(meta, sort_keys=True))
    print("# extra " + json.dumps(extra, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
