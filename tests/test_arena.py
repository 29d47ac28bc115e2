import copy
import json
import random

import pytest

from flux.agents import HeuristicAgent, RandomAgent
from flux.engine import GameState, Reason, Role
from flux.errors import ConfigError, FormatError
from flux.arena import (
    ALL_TAGS,
    STATS_CSV_HEADER,
    MatchupSpec,
    agent_factory,
    aggregate_stats,
    classify_failure,
    compute_ci,
    play_game,
    read_transcripts,
    record_to_jsonl,
    run_benchmark,
    run_matchup,
    summarize_record,
    verify_record,
    write_stats_csv,
    write_transcripts,
)
from flux.qlearn import save_qtable


def test_play_game_is_deterministic_per_seed():
    a = play_game(RandomAgent(), RandomAgent(), seed=42)
    b = play_game(RandomAgent(), RandomAgent(), seed=42)
    c = play_game(RandomAgent(), RandomAgent(), seed=43)
    assert a == b
    assert a != c


def test_p0_always_opens_as_the_shrinker():
    record = play_game(HeuristicAgent(), RandomAgent(), seed=1)
    assert record.plies[0].role is Role.SHRINKER
    assert record.plies[0].cells_before == (2, 1, 3, 1, 2)
    roles = [p.role for p in record.plies]
    assert roles == [Role.SHRINKER if i % 2 == 0 else Role.AMPLIFIER for i in range(len(roles))]


def test_records_replay_cleanly():
    for seed in range(25):
        record = play_game(RandomAgent(), RandomAgent(), seed=seed)
        assert verify_record(record) == []


class TestVerify:
    def make_record(self):
        return play_game(RandomAgent(), RandomAgent(), seed=3)

    def test_tampered_cells_are_caught(self):
        record = self.make_record()
        bad = copy.deepcopy(record)
        mid = len(bad.plies) // 2
        bad.plies[mid].cells_after = (99,) + tuple(bad.plies[mid].cells_after[1:])
        assert verify_record(bad) != []

    def test_truncated_record_is_caught(self):
        record = self.make_record()
        bad = copy.deepcopy(record)
        bad.plies.pop()
        assert any("before the game ends" in p for p in verify_record(bad))

    def test_wrong_action_text_is_caught(self):
        record = self.make_record()
        bad = copy.deepcopy(record)
        bad.plies[0].action_text = "DRAIN 99"
        assert verify_record(bad) != []


def test_transcript_round_trip(tmp_path):
    records = [play_game(RandomAgent(), RandomAgent(), seed=s, game_id=s) for s in range(5)]
    path = tmp_path / "games.jsonl"
    write_transcripts(records, str(path))
    assert read_transcripts(str(path)) == records


def test_unreadable_transcript_reports_the_line(tmp_path):
    path = tmp_path / "games.jsonl"
    path.write_text('{"type": "game", "game": 0, "seed": 0, "p0": "a", "p1": "b", "p0_role": 0}\nnot json\n')
    with pytest.raises(FormatError) as err:
        read_transcripts(str(path))
    assert "line 2" in str(err.value)


GAME_LINE = '{"type": "game", "game": 0, "seed": 0, "p0": "a", "p1": "b", "p0_role": 0}\n'


def test_transcript_without_an_end_record_is_rejected(tmp_path):
    path = tmp_path / "games.jsonl"
    path.write_text(GAME_LINE)
    with pytest.raises(FormatError) as err:
        read_transcripts(str(path))
    assert "game 0 has no end record" in str(err.value)


def test_game_cut_short_by_the_next_game_is_rejected(tmp_path):
    record = play_game(RandomAgent(), RandomAgent(), seed=0, game_id=1)
    path = tmp_path / "games.jsonl"
    path.write_text(GAME_LINE + record_to_jsonl(record))
    with pytest.raises(FormatError) as err:
        read_transcripts(str(path))
    assert "line 2" in str(err.value) and "game 0 has no end record" in str(err.value)


@pytest.mark.parametrize("kind", ["ply", "end"])
def test_record_before_any_game_is_rejected(tmp_path, kind):
    record = play_game(RandomAgent(), RandomAgent(), seed=0)
    path = tmp_path / "games.jsonl"
    write_transcripts([record], str(path))
    lines = path.read_text().splitlines(keepends=True)
    line = lines[1] if kind == "ply" else lines[-1]
    path.write_text(line + "".join(lines))
    with pytest.raises(FormatError) as err:
        read_transcripts(str(path))
    assert "line 1" in str(err.value) and f"{kind} record before any game record" in str(err.value)


@pytest.mark.parametrize(
    "where, field, value, message",
    [
        ("end", "plies", 99, "end record counts 99 plies"),
        ("end", "game", 7, "end record for game 7 inside game 0"),
        ("ply", "game", 42, "ply record for game 42 inside game 1"),
        ("game", "game", "one", "game must be int"),
        ("game", "seed", "not-a-seed", "seed must be int"),
    ],
)
def test_transcript_records_must_agree_with_their_game(tmp_path, where, field, value, message):
    # each edit used to read cleanly, and verify_record found nothing wrong
    records = [play_game(RandomAgent(), RandomAgent(), seed=s, game_id=s) for s in range(2)]
    path = tmp_path / "games.jsonl"
    write_transcripts(records, str(path))
    lines = path.read_text().splitlines(keepends=True)
    first_end = len(records[0].plies) + 1
    lineno = {"game": 0, "end": first_end, "ply": first_end + 2}[where]
    obj = json.loads(lines[lineno])
    assert obj["type"] == where
    obj[field] = value
    lines[lineno] = json.dumps(obj) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(FormatError) as err:
        read_transcripts(str(path))
    assert f"line {lineno + 1}:" in str(err.value) and message in str(err.value)


@pytest.mark.parametrize("field", ["cells_before", "cells_after"])
@pytest.mark.parametrize(
    "cells", [[2, "1", 3, 1, 2], [2, 1.0, 3, 1, 2], [2, True, 3, 1, 2], "2,1,3,1,2", None]
)
def test_transcript_cells_must_be_plain_ints(tmp_path, field, cells):
    # "1" or 1.0 would otherwise surface later as a bare TypeError, or as a
    # state key like "2,1.0,..." that the solved table quietly misses
    record = play_game(RandomAgent(), RandomAgent(), seed=0)
    path = tmp_path / "games.jsonl"
    write_transcripts([record], str(path))
    lines = path.read_text().splitlines(keepends=True)
    ply = json.loads(lines[1])
    ply[field] = cells
    lines[1] = json.dumps(ply) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(FormatError) as err:
        read_transcripts(str(path))
    assert "line 2" in str(err.value) and field in str(err.value)


@pytest.mark.parametrize(
    "field, value",
    [
        ("ply", "0"),
        ("ply", 0.0),
        ("ply", False),
        ("action", "3"),
        ("action", 3.0),
        ("action", True),
        ("action", None),
        ("sum_after", "9"),
        ("sum_after", 9.5),
        ("sum_after", True),
        ("action_text", 3),
        ("action_text", None),
        ("action_text", ["DRAIN", 1]),
    ],
)
def test_transcript_ply_fields_are_type_checked(tmp_path, field, value):
    # an "action": "3" used to read cleanly and then fail in verify_record
    # with a bare TypeError
    record = play_game(RandomAgent(), RandomAgent(), seed=0)
    path = tmp_path / "games.jsonl"
    write_transcripts([record], str(path))
    lines = path.read_text().splitlines(keepends=True)
    ply = json.loads(lines[1])
    ply[field] = value
    lines[1] = json.dumps(ply) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(FormatError) as err:
        read_transcripts(str(path))
    assert "line 2" in str(err.value) and field in str(err.value)


class TestStats:
    def test_confidence_interval_values(self):
        # Wilson score interval: non-zero width at 0% and 100%
        low, high = compute_ci(500, 1000)
        assert low == pytest.approx(0.4690690341793595, abs=1e-15)
        assert high == pytest.approx(0.5309309658206405, abs=1e-15)
        assert compute_ci(0, 1000) == pytest.approx((0.0, 0.003826898586390522), abs=1e-15)
        assert compute_ci(1000, 1000) == pytest.approx((0.9961731014136095, 1.0), abs=1e-15)
        low, high = compute_ci(1, 4)
        assert low == pytest.approx(0.045586062644636216, abs=1e-15)
        assert high == pytest.approx(0.6993639475573634, abs=1e-15)

    def test_aggregate_counts(self):
        records = [play_game(RandomAgent(), RandomAgent(), seed=s) for s in range(8)]
        stats = aggregate_stats([summarize_record(r) for r in records])
        assert stats.games == 8
        assert stats.wins_p0 + stats.wins_p1 == 8
        assert stats.wins_for(Role.SHRINKER) == stats.wins_p0
        assert stats.win_rate_for(Role.AMPLIFIER) == stats.wins_p1 / 8
        assert stats.avg_moves == stats.total_plies / 8
        assert sum(stats.reasons.values()) == 8
        assert stats.llm_plies == 0 and stats.invalid_moves == 0
        assert stats.fallback_count == 0 and stats.transport_failures == 0

    def test_aggregate_is_order_independent(self):
        records = [play_game(RandomAgent(), RandomAgent(), seed=s) for s in range(6)]
        summaries = [summarize_record(r) for r in records]
        shuffled = list(summaries)
        random.Random(0).shuffle(shuffled)
        assert aggregate_stats(summaries) == aggregate_stats(shuffled)

    def test_empty_aggregate_is_an_error(self):
        with pytest.raises(ValueError):
            aggregate_stats([])

    def test_stats_csv_layout(self, tmp_path):
        records = [play_game(RandomAgent(), RandomAgent(), seed=s) for s in range(4)]
        stats = aggregate_stats([summarize_record(r) for r in records])
        path = tmp_path / "stats.csv"
        write_stats_csv([("rvr", Role.SHRINKER, stats)], str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == STATS_CSV_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "rvr"
        assert fields[1] == "shrinker"
        assert int(fields[2]) == stats.wins_p0
        assert int(fields[3]) == 4
        assert float(fields[4]) == pytest.approx(stats.win_rate_p0, abs=5e-7)


class TestMatchups:
    def test_run_matchup_writes_replayable_transcripts(self, tmp_path):
        path = tmp_path / "t.jsonl"
        spec = MatchupSpec(p0="random", p1="heuristic", games=15, base_seed=9, label="x")
        stats = run_matchup(spec, transcript_path=str(path))
        records = read_transcripts(str(path))
        assert len(records) == 15
        assert stats.games == 15
        for record in records:
            assert verify_record(record) == []

    def test_matchups_are_reproducible_byte_for_byte(self, tmp_path):
        spec = MatchupSpec(p0="random", p1="random", games=12, base_seed=77)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_matchup(spec, transcript_path=str(a))
        run_matchup(spec, transcript_path=str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_transcript_bytes_come_from_write_transcripts(self, tmp_path):
        spec = MatchupSpec(p0="random", p1="heuristic", games=9, base_seed=5)
        played, written = tmp_path / "played.jsonl", tmp_path / "written.jsonl"
        run_matchup(spec, transcript_path=str(played))
        records = (play_game(RandomAgent(), HeuristicAgent(), 5 + i, game_id=i) for i in range(9))
        write_transcripts(records, str(written))
        assert played.read_bytes() == written.read_bytes()

    def test_zero_games_is_a_config_error(self):
        with pytest.raises(ConfigError):
            run_matchup(MatchupSpec(p0="random", p1="random", games=0))


class TestAgentFactory:
    def test_known_ids(self, tmp_path, small_tables):
        q_s, _, _ = small_tables
        q_path = tmp_path / "q.txt"
        save_qtable(q_s, str(q_path))
        for identifier in ("random", "heuristic", "optimal", f"rl:{q_path}"):
            agent = agent_factory(identifier)(0)
            assert hasattr(agent, "choose")

    def test_scripted_llm_reads_a_reply_file(self, tmp_path):
        script = tmp_path / "replies.txt"
        script.write_text("DRAIN 1\nAMPLIFY 0\n")
        agent = agent_factory(f"llm:scripted={script}")(0)
        action = agent.choose(GameState((2, 1, 3, 1, 2), 0), Role.SHRINKER, random.Random(0))
        assert action.text == "DRAIN 1"

    def test_missing_table_file(self):
        with pytest.raises(ConfigError):
            agent_factory("rl:/nonexistent/q.txt")

    def test_unknown_and_reserved_ids(self):
        with pytest.raises(ConfigError):
            agent_factory("alphazero")
        with pytest.raises(ConfigError):
            agent_factory("human")
        with pytest.raises(ConfigError):
            agent_factory("llm:telepathy")


class TestClassifier:
    def test_clean_optimal_game_has_no_tags(self):
        record = play_game(agent_factory("optimal")(0), agent_factory("optimal")(0), seed=0)
        assert classify_failure(record) == []

    def test_sum_blindness_worked_example(self, make_scripted_record):
        # Shrinker doubles the 12 at move 3: sum jumps from 18 to 30 with
        # plenty of harmless drains on the table.
        record = make_scripted_record(
            "2,1,3,1,2|0", ["AMPLIFY 2", "AMPLIFY 2"], ["AMPLIFY 2"], seed=12
        )
        assert record.plies[-1].cells_before == (2, 1, 12, 1, 2)
        assert record.outcome.reason is Reason.SUM_EXCEEDED_20
        assert classify_failure(record) == [(3, "sum_blindness")]

    def test_myopia_worked_example(self, make_scripted_record):
        # at 4,1,2 with move 5 to play the Shrinker is winning; doubling the 4
        # hands the game to the Amplifier
        record = make_scripted_record(
            "4,1,2|4", ["AMPLIFY 0", "DRAIN 1"], ["AMPLIFY 0", "AMPLIFY 0"], seed=21
        )
        assert classify_failure(record) == [(5, "myopia")]

    def test_row_miscount_worked_example(self, make_scripted_record):
        record = make_scripted_record(
            "2,1,3,1,2|0", ["AMPLIFY 2", "DRAIN 9"], ["AMPLIFY 2", "AMPLIFY 2"], seed=101
        )
        assert classify_failure(record) == [(3, "row_miscount")]
        bad_ply = record.plies[2]
        assert bad_ply.annotation["raw_reply"] == "DRAIN 9"
        assert bad_ply.annotation["substituted"] is True

    def test_substituted_moves_are_not_blamed_for_blunders(self, make_scripted_record):
        # the substituted random move may well be awful, but the mover never
        # chose it, so only the miscount is reported
        record = make_scripted_record(
            "2,1,3,1,2|0", ["AMPLIFY 2", "DRAIN 9"], ["AMPLIFY 2", "AMPLIFY 2"], seed=104
        )
        tags = classify_failure(record)
        assert all(tag == "row_miscount" for _, tag in tags)

    def test_tag_names(self):
        assert set(ALL_TAGS) == {"sum_blindness", "row_miscount", "myopia", "format"}


def test_benchmark_plays_one_job_only():
    with pytest.raises(ConfigError, match="jobs must be 1"):
        run_benchmark("qs.txt", "qa.txt", games=1, jobs=2)


def test_benchmark_smoke(tmp_path, small_tables):
    q_s, q_a, _ = small_tables
    ps, pa = tmp_path / "qs.txt", tmp_path / "qa.txt"
    save_qtable(q_s, str(ps))
    save_qtable(q_a, str(pa))
    report = run_benchmark(str(ps), str(pa), games=20, base_seed=4)
    assert len(report.rows) == 8
    text = report.to_text()
    assert "Heuristic vs. Random" in text
    assert "win rate" in text.lower() or "%" in text
    entries = report.stats_entries()
    assert len(entries) == 8
    assert all(stats.games == 20 for _, _, stats in entries)
