"""The release gate: nine numbered checks, one test and one printed line each.

Every expected number here was produced by an independent oracle before the
implementation was finished: the exact solver cross-checks Monte Carlo, the
Monte Carlo cross-checks the solver, hand-built transcripts pin the failure
classifier, and byte comparisons pin determinism.  Reference win rates quoted
from the original experiment are reported for context; where our measured
dynamics genuinely differ from those references the checks below say so
explicitly rather than glossing over it.
"""

import hashlib
import random
import time
from pathlib import Path

import pytest

from flux.arena import (
    MatchupSpec,
    classify_failure,
    read_transcripts,
    run_benchmark,
    run_matchup,
    verify_record,
    write_stats_csv,
    write_transcripts,
)
from flux.engine import (
    Role,
    apply,
    initial_state,
    legal_actions,
    role_to_move,
    state_key,
    status_of,
)
from flux.llm import LlmAgent, ScriptedBackend
from flux.qlearn import TrainConfig, save_qtable, train, write_curve
from flux.solver import (
    optimal_policy,
    random_win_prob,
    reachable_states,
    solve,
)

# measured once from the exact solver and frozen (see tests/test_solver.py)
EXACT_RANDOM_PLAY = 0.29231361218346746
REACHABLE_SHRINKER = 4426
REACHABLE_AMPLIFIER = 3984
FIXTURE = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / "q_amplifier.txt"

_ARTIFACTS: dict = {}


def _announce(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def trained(work):
    """One full training run with the standard hyperparameters."""
    cfg = TrainConfig()
    t0 = time.perf_counter()
    q_s, q_a, curve = train(cfg)
    duration = time.perf_counter() - t0
    ps, pa = work / "q_shrinker.txt", work / "q_amplifier.txt"
    save_qtable(q_s, str(ps))
    save_qtable(q_a, str(pa))
    return {
        "cfg": cfg,
        "q_s": q_s,
        "q_a": q_a,
        "curve": curve,
        "duration": duration,
        "ps": str(ps),
        "pa": str(pa),
    }


@pytest.fixture(scope="module")
def bench(work, trained):
    """The eight-row benchmark grid at 1,000 games per row, plus its files."""
    t0 = time.perf_counter()
    report = run_benchmark(trained["ps"], trained["pa"], games=1000, base_seed=0)
    duration = time.perf_counter() - t0
    csv_path, report_path = work / "stats.csv", work / "report.txt"
    write_stats_csv(report.stats_entries(), str(csv_path))
    report_path.write_text(report.to_text() + "\n", encoding="utf-8")
    return {
        "report": report,
        "duration": duration,
        "csv_path": str(csv_path),
        "report_path": str(report_path),
        "csv_bytes": csv_path.read_bytes(),
        "report_bytes": report_path.read_bytes(),
    }


GARBAGE_REPLY = "I refuse to answer."


def scripted_llm_factory(seed):
    """A fake chat model whose replies are half garbage, half 'DRAIN 0'."""
    rng = random.Random(seed ^ 0xA5A5)
    replies = [GARBAGE_REPLY if rng.random() < 0.5 else "DRAIN 0" for _ in range(20)]
    return LlmAgent(ScriptedBackend(replies), name="llm:scripted-noise")


def _noisy_llm_matchup(qa_path, transcript_path):
    spec = MatchupSpec(
        p0=scripted_llm_factory, p1=f"rl:{qa_path}", games=100, base_seed=7000,
        label="llm-vs-rl",
    )
    return run_matchup(spec, transcript_path=transcript_path)


def test_criterion_1_rules_and_enumeration_agree(capsys):
    """Full enumeration: every reachable state obeys the rules, in under 5s."""
    t0 = time.perf_counter()
    reach = reachable_states(initial_state())
    solved = solve(initial_state())
    for state in reach.ongoing:
        cells, m = state.cells, state.moves_played
        # independently re-derived liveness: no win condition may hold
        assert sum(cells) <= 20 and len(cells) >= 2 and m < 15
        assert role_to_move(state) is (Role.SHRINKER if m % 2 == 0 else Role.AMPLIFIER)
        actions = legal_actions(state)
        assert len(actions) == 2 * len(cells)
        for action in actions:
            child, _ = apply(state, action)
            assert state_key(child) in solved.value
    for state, status in reach.terminal:
        cells, m = state.cells, state.moves_played
        if sum(cells) > 20:
            expect = Role.AMPLIFIER
        elif len(cells) <= 1:
            expect = Role.SHRINKER
        else:
            assert m >= 15
            expect = Role.SHRINKER if len(cells) < 3 else Role.AMPLIFIER
        assert status.winner is expect
        assert solved.value[state_key(state)] is expect
        assert solved.depth[state_key(state)] == 0
    n_s = sum(1 for s in reach.ongoing if s.moves_played % 2 == 0)
    n_a = len(reach.ongoing) - n_s
    duration = time.perf_counter() - t0
    _announce(
        capsys, 1, True,
        f"{len(reach.ongoing)} live + {len(reach.terminal)} terminal states verified "
        f"({n_s}/{n_a} by mover) in {duration:.2f}s",
    )
    assert (n_s, n_a) == (REACHABLE_SHRINKER, REACHABLE_AMPLIFIER)
    assert duration < 5.0


def test_criterion_2_monte_carlo_matches_the_solver(capsys):
    """100k random games agree with exact dynamic programming within 3 sigma."""
    t0 = time.perf_counter()
    rng = random.Random(20260816)
    n = 100_000
    wins = 0
    total_moves = 0
    for _ in range(n):
        state = initial_state()
        status = status_of(state)
        while not status.is_terminal:
            actions = legal_actions(state)
            state, status = apply(state, actions[rng.randrange(len(actions))])
        wins += status.winner is Role.SHRINKER
        total_moves += state.moves_played
    duration = time.perf_counter() - t0
    p_hat = wins / n
    sigma = (EXACT_RANDOM_PLAY * (1 - EXACT_RANDOM_PLAY) / n) ** 0.5
    diff = abs(p_hat - EXACT_RANDOM_PLAY)
    assert random_win_prob(initial_state()) == EXACT_RANDOM_PLAY
    _announce(
        capsys, 2, diff <= 3 * sigma and duration < 10.0,
        f"MC {p_hat:.5f} vs exact {EXACT_RANDOM_PLAY:.5f} "
        f"(|diff| {diff:.5f} <= 3σ {3 * sigma:.5f}), avg game {total_moves / n:.2f} moves, "
        f"{duration:.1f}s; quoted reference 43.3%/57.4% is informational only",
    )
    assert diff <= 3 * sigma
    assert duration < 10.0


def test_criterion_3_optimal_play_is_self_consistent(capsys, solved):
    """1,000 optimal-vs-optimal playouts all land on the solver's predicted winner."""
    t0 = time.perf_counter()
    reach = reachable_states(initial_state())
    rng = random.Random(303)
    mismatches = 0
    for _ in range(1000):
        state = reach.ongoing[rng.randrange(len(reach.ongoing))]
        predicted = solved.value[state_key(state)]
        status = status_of(state)
        while not status.is_terminal:
            state, status = apply(state, optimal_policy(solved, state))
        if status.winner is not predicted:
            mismatches += 1
    duration = time.perf_counter() - t0
    _announce(
        capsys, 3, mismatches == 0 and duration < 2.0,
        f"0 of 1000 playouts contradict the solved values ({duration:.2f}s)"
        if mismatches == 0
        else f"{mismatches} of 1000 playouts contradict the solved values",
    )
    assert mismatches == 0
    assert duration < 2.0


def test_criterion_4_training_run(capsys, trained, solved):
    """30,000 episodes with the standard hyperparameters, in bounds, on time."""
    cfg = trained["cfg"]
    assert (cfg.alpha, cfg.gamma, cfg.episodes) == (0.2, 0.92, 30_000)
    assert (cfg.eps_start, cfg.eps_min, cfg.eps_decay) == (1.0, 0.05, 0.9997)
    q_s, q_a = trained["q_s"], trained["q_a"]
    final_eps = trained["curve"][-1].epsilon
    bound = 1.0 / (1.0 - cfg.gamma)  # 12.5
    flat = [v for t in (q_s, q_a) for row in t.entries.values() for v in row.values()]
    n_s, n_a = len(q_s.entries), len(q_a.entries)
    reach = reachable_states(initial_state())
    live_s = reach.ongoing_keys(Role.SHRINKER)
    live_a = reach.ongoing_keys(Role.AMPLIFIER)
    ok = (
        trained["duration"] < 120.0
        and final_eps == 0.05
        and all(-bound <= v <= bound for v in flat)
        and 1000 <= n_s <= 8000
        and 1000 <= n_a <= 8000
        and set(q_s.entries) <= live_s
        and set(q_a.entries) <= live_a
    )
    _announce(
        capsys, 4, ok,
        f"{cfg.episodes} episodes in {trained['duration']:.1f}s, final ε={final_eps}, "
        f"{n_s}/{n_a} states (reference run saw 3092/2657), all |Q| ≤ {bound:.1f}",
    )
    assert trained["duration"] < 120.0
    assert final_eps == 0.05
    assert all(-bound <= v <= bound for v in flat)
    assert 1000 <= n_s <= 8000 and n_s <= len(live_s)
    assert 1000 <= n_a <= 8000 and n_a <= len(live_a)
    assert set(q_s.entries) <= live_s
    assert set(q_a.entries) <= live_a


def test_criterion_5_agent_strength_ordering(capsys, bench):
    """Trained tables must beat the baselines they were built to beat.

    The published ordering is RL > heuristic > random for the Shrinker seat
    (89.5 > 77.6 > 43.3 in the reference run).  Our heuristic is far stronger
    against a random Amplifier than the reference's 77.6%, so the middle link
    is held to the measured values honestly: if RL cannot clear the heuristic
    under the standard training recipe, this check fails and says so.
    """
    rows = bench["report"].rows
    rand_s = rows[0].stats.win_rate_for(Role.SHRINKER)
    heur_s = rows[1].stats.win_rate_for(Role.SHRINKER)
    rl_s = rows[2].stats.win_rate_for(Role.SHRINKER)
    rl_a = rows[6].stats.win_rate_for(Role.AMPLIFIER)
    clauses = {
        "RL-S > Heuristic-S": rl_s > heur_s,
        "Heuristic-S > Random": heur_s > rand_s,
        "RL-A >= 90%": rl_a >= 0.90,
        "RL-S >= 80%": rl_s >= 0.80,
        "under 30s": bench["duration"] < 30.0,
    }
    failed = [name for name, ok in clauses.items() if not ok]
    _announce(
        capsys, 5, not failed,
        f"RL-S {rl_s:.1%}, Heuristic-S {heur_s:.1%}, Random {rand_s:.1%}, "
        f"RL-A {rl_a:.1%} over 1000 games each in {bench['duration']:.1f}s"
        + (f"; failed: {', '.join(failed)}" if failed else ""),
    )
    assert clauses["Heuristic-S > Random"], (heur_s, rand_s)
    assert clauses["RL-A >= 90%"], rl_a
    assert clauses["RL-S >= 80%"], rl_s
    assert clauses["under 30s"], bench["duration"]
    assert clauses["RL-S > Heuristic-S"], (
        f"trained Shrinker wins {rl_s:.1%} of games against a random Amplifier, "
        f"short of the scripted heuristic's {heur_s:.1%}; the standard recipe "
        f"(three-mode curriculum, 30k episodes) does not reproduce the published "
        f"ordering against a heuristic this strong"
    )


def test_criterion_6_self_play_equilibrium(capsys, trained):
    """Informational: what trained-vs-trained play looks like."""
    spec = MatchupSpec(
        p0=f"rl:{trained['ps']}", p1=f"rl:{trained['pa']}", games=1000,
        base_seed=60_000, label="rl-vs-rl",
    )
    stats = run_matchup(spec)
    tiebreaks = stats.reasons.get("tiebreak_at_least_3", 0) + stats.reasons.get(
        "tiebreak_fewer_than_3", 0
    )
    _announce(
        capsys, 6, True,
        f"RL-vs-RL: shrinker wins {stats.wins_p0}/1000, avg {stats.avg_moves:.1f} moves, "
        f"{tiebreaks} games reach the move-15 tiebreak "
        f"(reference run: 0% shrinker wins, all games at the tiebreak)",
    )
    assert stats.games == 1000


def test_criterion_7_garbage_tolerant_llm_harness(capsys, work, trained):
    """A scripted model that talks nonsense half the time cannot derail a game."""
    t0 = time.perf_counter()
    transcript_path = str(work / "llm_games.jsonl")
    stats = _noisy_llm_matchup(trained["pa"], transcript_path)
    records = read_transcripts(transcript_path)
    problems = [p for r in records for p in verify_record(r)]
    illegal = 0
    llm_plies = invalid = 0
    for record in records:
        for ply in record.plies:
            if not 0 <= ply.action_code < 2 * len(ply.cells_before):
                illegal += 1
            note = ply.annotation or {}
            if "raw_reply" in note:
                llm_plies += 1
                invalid += note.get("substituted", False)
    duration = time.perf_counter() - t0
    frac = invalid / llm_plies
    ok = (
        not problems
        and illegal == 0
        and abs(frac - 0.5) <= 0.05
        and len(records) == 100
        and duration < 5.0
    )
    _announce(
        capsys, 7, ok,
        f"100 games, {llm_plies} model plies, invalid fraction {frac:.3f} "
        f"(target 0.50 ± 0.05), 0 illegal applied moves, all transcripts replay, "
        f"{duration:.2f}s",
    )
    assert problems == []
    assert illegal == 0
    assert stats.invalid_fraction == pytest.approx(frac)
    assert abs(frac - 0.5) <= 0.05
    assert duration < 5.0


def test_criterion_8_everything_reruns_byte_identically(capsys, work, trained, bench):
    """Same seeds in, same bytes out: tables, benchmark files, transcripts."""
    q_s2, q_a2, _ = train(trained["cfg"])
    ps2, pa2 = work / "q_shrinker_rerun.txt", work / "q_amplifier_rerun.txt"
    save_qtable(q_s2, str(ps2))
    save_qtable(q_a2, str(pa2))
    tables_same = (
        ps2.read_bytes() == open(trained["ps"], "rb").read()
        and pa2.read_bytes() == open(trained["pa"], "rb").read()
    )

    report2 = run_benchmark(trained["ps"], trained["pa"], games=1000, base_seed=0)
    csv2, rep2 = work / "stats_rerun.csv", work / "report_rerun.txt"
    write_stats_csv(report2.stats_entries(), str(csv2))
    rep2.write_text(report2.to_text() + "\n", encoding="utf-8")
    bench_same = (
        csv2.read_bytes() == bench["csv_bytes"]
        and rep2.read_bytes() == bench["report_bytes"]
    )

    t2 = str(work / "llm_games_rerun.jsonl")
    _noisy_llm_matchup(trained["pa"], t2)
    transcripts_same = open(t2, "rb").read() == open(str(work / "llm_games.jsonl"), "rb").read()

    ok = tables_same and bench_same and transcripts_same
    _announce(
        capsys, 8, ok,
        f"re-run artifacts byte-identical: tables={tables_same}, "
        f"benchmark files={bench_same}, transcripts={transcripts_same}",
    )
    assert tables_same
    assert bench_same
    assert transcripts_same


# Twelve hand-built transcripts, four per failure mode.  Each script was
# designed so that exactly one ply carries exactly one tag; the board states
# involved are all reachable in real play, so the solver's opinion of them is
# available to the classifier.
FAILURE_FIXTURES = [
    # --- a Shrinker amplifies straight past the sum limit with safe moves available
    ("2,1,3,1,2|0", ["AMPLIFY 0", "AMPLIFY 0"], ["AMPLIFY 0"], 11, [(3, "sum_blindness")]),
    ("2,1,3,1,2|0", ["AMPLIFY 2", "AMPLIFY 2"], ["AMPLIFY 2"], 12, [(3, "sum_blindness")]),
    ("2,1,3,1,2|0", ["AMPLIFY 4", "AMPLIFY 4"], ["AMPLIFY 4"], 13, [(3, "sum_blindness")]),
    ("2,1,3,1,2|0", ["AMPLIFY 0", "DRAIN 0", "AMPLIFY 0"], ["AMPLIFY 0", "AMPLIFY 0"], 14,
     [(5, "sum_blindness")]),
    # --- a winning mover hands the game away (see the solved values)
    ("4,1,2|4", ["AMPLIFY 0", "DRAIN 1"], ["AMPLIFY 0", "AMPLIFY 0"], 21, [(5, "myopia")]),
    ("4,1,1,1|4", ["AMPLIFY 0", "DRAIN 1"], ["AMPLIFY 0", "AMPLIFY 0"], 22, [(5, "myopia")]),
    ("4,1,1,2|3",
     ["DRAIN 1", "DRAIN 0", "DRAIN 0", "DRAIN 0", "DRAIN 0", "AMPLIFY 0"],
     ["DRAIN 1", "AMPLIFY 0", "AMPLIFY 0", "AMPLIFY 0", "AMPLIFY 0", "AMPLIFY 0"],
     23, [(4, "myopia")]),
    ("4,3,2|3",
     ["DRAIN 1", "DRAIN 0", "DRAIN 0", "DRAIN 0", "DRAIN 0", "AMPLIFY 0"],
     ["DRAIN 1", "AMPLIFY 0", "AMPLIFY 0", "AMPLIFY 0", "AMPLIFY 0", "AMPLIFY 0"],
     24, [(4, "myopia")]),
    # --- parseable replies that point at cells which do not exist
    ("2,1,3,1,2|0", ["AMPLIFY 2", "DRAIN 9"], ["AMPLIFY 2", "AMPLIFY 2"], 101,
     [(3, "row_miscount")]),
    ("2,1,3,1,2|0", ["AMPLIFY 2", "amplify 7"], ["AMPLIFY 2", "AMPLIFY 2"], 102,
     [(3, "row_miscount")]),
    ("2,1,3,1,2|0", ["AMPLIFY 2", "DRAIN: -2"], ["AMPLIFY 2", "AMPLIFY 2"], 103,
     [(3, "row_miscount")]),
    ("2,1,3,1,2|0", ["AMPLIFY 2", "AMPLIFY 10 please"], ["AMPLIFY 2", "AMPLIFY 2"], 104,
     [(3, "row_miscount")]),
]


def test_criterion_9_failure_classifier_is_exact(capsys, work, make_scripted_record):
    records = []
    expected = []
    for i, (start, p0r, p1r, seed, want) in enumerate(FAILURE_FIXTURES):
        record = make_scripted_record(start, p0r, p1r, seed, game_id=i)
        records.append(record)
        expected.append(want)
    got = [classify_failure(r) for r in records]
    # the same answers must come back off disk
    path = str(work / "failure_fixtures.jsonl")
    write_transcripts(records, path)
    reread = [classify_failure(r) for r in read_transcripts(path)]
    by_mode = {"sum_blindness": 0, "myopia": 0, "row_miscount": 0}
    for tags in got:
        for _, tag in tags:
            by_mode[tag] += 1
    ok = got == expected and reread == expected
    _announce(
        capsys, 9, ok,
        f"12 synthetic transcripts tagged exactly: "
        f"{by_mode['sum_blindness']} sum-blindness, {by_mode['row_miscount']} row-miscount, "
        f"{by_mode['myopia']} myopia; identical after a disk round-trip",
    )
    assert got == expected
    assert reread == expected


def test_standard_run_bytes_are_pinned(work, trained):
    # not a criterion: the standard run's files, digests taken before training
    # moved onto the game graph; the Amplifier's table is perfbench's fixture
    curve_path = work / "training_curve.csv"
    write_curve(trained["curve"], str(curve_path))
    assert Path(trained["pa"]).read_bytes() == FIXTURE.read_bytes()
    assert _sha256(trained["ps"]) == "eeb6bc4ca8bc4665b237955363c8c16ca20397237247514e92368f60e22cf946"
    assert _sha256(curve_path) == "e1e9992cf46d71a6392986c4cd896a6423bf9fb37f1251ad2f3e93b57831da4f"


def test_benchmark_bytes_are_pinned(bench):
    # not a criterion: the grid's files over the standard run's tables, digests
    # taken before the agents became seats; criterion 8 only compares reruns
    assert _sha256(bench["report_path"]) == "edbf54985b8719bbedc8e35386612a2fd234fdc2e22c5fb9e0ea38e3c75fdb8b"
    assert _sha256(bench["csv_path"]) == "aafe6c12d15006343cd7f285b0c22c88aecf49512722bf11170a0ca29c39847e"


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_gate_summary(capsys, solved):
    # not a criterion: just make the tail of the log say what this file is
    with capsys.disabled():
        print("\nacceptance gate complete — see the nine criterion lines above")
    assert solved.value[state_key(initial_state())] is Role.AMPLIFIER
