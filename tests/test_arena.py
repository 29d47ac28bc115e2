import copy
import gc
import hashlib
import json
import random
import tracemalloc
from pathlib import Path

import pytest

from flux.agents import GreedyQAgent, HeuristicAgent, RandomAgent
from flux.engine import GameState, Reason, Role, TerminalStatus, status_of
from flux.errors import ConfigError, FormatError, TransportError
from flux.arena import (
    ALL_TAGS,
    STATS_CSV_HEADER,
    MatchStats,
    MatchupSpec,
    agent_factory,
    classify_failure,
    compute_ci,
    play_game,
    read_transcripts,
    record_to_jsonl,
    run_benchmark,
    run_matchup,
    verify_record,
    write_stats_csv,
    write_transcripts,
    _dump,
)
from flux.llm import LlmAgent, ScriptedBackend
from flux.qlearn import save_qtable

from conftest import load_rows

FIXTURE = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / "q_amplifier.txt"


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
    # ply 3 of this game is the Shrinker's DRAIN 2 from 2,6,1,2 to 2,6,2, and
    # ply 13 ends it with a sum past 20
    def make_record(self):
        return play_game(RandomAgent(), RandomAgent(), seed=3)

    def tampered(self, k, field, value):
        bad = self.make_record()
        setattr(bad.plies[k], field, value)
        return verify_record(bad)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("ply", 7, "game 0 ply 7: ply 7 != replayed 3"),
            ("role", Role.AMPLIFIER, "game 0 ply 3: role 'amplifier' != replayed 'shrinker'"),
            ("cells_before", (2, 1, 3), "game 0 ply 3: cells_before [2, 1, 3] != replayed [2, 6, 1, 2]"),
            ("sum_after", 99, "game 0 ply 3: sum_after 99 != replayed 10"),
            (
                "status",
                TerminalStatus.SUM_EXCEEDED_20,
                "game 0 ply 3: status 'amplifier:sum_exceeded_20' != replayed 'ongoing'",
            ),
        ],
    )
    def test_each_tampered_field_is_named(self, field, value, message):
        assert self.tampered(2, field, value) == [message]

    def test_tampered_cells_are_caught(self):
        problems = self.tampered(2, "cells_after", (99, 1))
        assert problems == ["game 0 ply 3: cells_after [99, 1] != replayed [2, 6, 2]"]

    def test_wrong_action_text_is_caught(self):
        problems = self.tampered(0, "action_text", "DRAIN 99")
        assert problems == ["game 0 ply 1: action_text 'DRAIN 99' != replayed 'DRAIN 1'"]

    def test_opening_row_is_checked(self):
        problems = self.tampered(0, "cells_before", (2, 1, 3, 1, 3))
        assert problems == ["game 0 ply 1: cells_before [2, 1, 3, 1, 3] != replayed [2, 1, 3, 1, 2]"]

    def test_out_of_range_action_code_is_caught(self):
        problems = self.tampered(0, "action_code", 10)
        assert problems == ["game 0 ply 1: action code 10 out of range for a row of 5"]

    def test_move_after_the_end_is_caught(self):
        bad = self.make_record()
        bad.plies.append(copy.copy(bad.plies[-1]))
        bad.plies[-1].ply = 14
        assert verify_record(bad) == ["game 0 ply 14: move recorded after the game ended"]

    def test_wrong_outcome_is_caught(self):
        bad = self.make_record()
        bad.outcome = TerminalStatus.TIEBREAK_FEWER_THAN_3
        assert verify_record(bad) == [
            "game 0: outcome 'shrinker:tiebreak_fewer_than_3' != replayed 'amplifier:sum_exceeded_20'"
        ]

    def test_truncated_record_is_caught(self):
        bad = self.make_record()
        bad.plies.pop()
        assert verify_record(bad) == ["game 0: record stops before the game ends"]


def test_transcript_round_trip(tmp_path):
    records = [play_game(RandomAgent(), RandomAgent(), seed=s, game_id=s) for s in range(5)]
    path = tmp_path / "games.jsonl"
    write_transcripts(records, str(path))
    assert read_transcripts(str(path)) == records


def test_read_records_share_rows_texts_and_statuses(tmp_path):
    records = [play_game(RandomAgent(), HeuristicAgent(), seed=s, game_id=s) for s in range(20)]
    path = tmp_path / "games.jsonl"
    write_transcripts(records, str(path))
    read = read_transcripts(str(path))
    assert read == records
    assert not hasattr(read[0].plies[0], "__dict__")
    shared: dict = {}
    for record in read:
        plies = record.plies
        for k in range(len(plies) - 1):
            assert plies[k].cells_after is plies[k + 1].cells_before
        for p in plies:
            # equal rows and texts, from any game of the file, are one object
            assert shared.setdefault(p.cells_before, p.cells_before) is p.cells_before
            assert shared.setdefault(p.cells_after, p.cells_after) is p.cells_after
            assert shared.setdefault(p.action_text, p.action_text) is p.action_text
            assert p.status is status_of(GameState(p.cells_after, p.ply))
        assert shared.setdefault(record.outcome, record.outcome) is record.outcome


def test_equal_plies_of_a_file_are_one_record(tmp_path):
    records = [play_game(HeuristicAgent(), HeuristicAgent(), seed=s, game_id=s) for s in range(20)]
    path = tmp_path / "games.jsonl"
    write_transcripts(records, str(path))
    read = read_transcripts(str(path))
    assert read == records
    plies = [p for record in read for p in record.plies]
    distinct = {id(p) for p in plies}
    assert len(distinct) <= len(plies) // 10
    # each distinct ply is one object, wherever in the file it was read
    assert len(distinct) == len({(p.ply, p.cells_before, p.action_code) for p in plies})
    again = [p for record in read_transcripts(str(path)) for p in record.plies]
    assert again == plies
    assert not distinct & {id(p) for p in again}  # two reads share no ply


@pytest.mark.parametrize(
    "first, second",
    [('{"fallback": true}', '{"fallback": 1}'), ('{"x": 0.0}', '{"x": -0.0}'), ('{"a": 1, "b": 2}', '{"b": 2, "a": 1}')],
    ids=["bool-int", "zero-sign", "key-order"],
)
def test_annotations_that_compare_equal_stay_as_written(tmp_path, first, second):
    # True == 1, 0.0 == -0.0 and dicts compare without key order, so a key by == would merge these plies
    record = play_game(RandomAgent(), RandomAgent(), seed=0)
    lines = []
    for game, annotation in enumerate((first, second)):
        record.game_id = game
        text = record_to_jsonl(record).splitlines(keepends=True)
        assert '"annotation":null' in text[1]
        text[1] = text[1].replace('"annotation":null', f'"annotation":{annotation}')
        lines += text
    path = tmp_path / "games.jsonl"
    path.write_text("".join(lines))
    a, b = (r.plies[0] for r in read_transcripts(str(path)))
    assert a is not b and a.annotation == b.annotation
    assert repr(a.annotation) == repr(json.loads(first)) != repr(json.loads(second)) == repr(b.annotation)


def test_read_records_stay_compact(tmp_path, small_tables):
    # about 63 bytes a ply, each distinct ply read once; 245 with a record per
    # ply, and 668 with a copy of each row, text, status and annotation key per
    # ply and a __dict__ per record
    _, q_a, _ = small_tables
    path = tmp_path / "llm.jsonl"
    replies = ["I refuse to answer.", "DRAIN 0"]

    def noisy_llm(seed):
        rng = random.Random(seed)
        return LlmAgent(ScriptedBackend([rng.choice(replies) for _ in range(20)]), name="llm:noise")

    spec = MatchupSpec(p0=noisy_llm, p1=lambda seed: GreedyQAgent(q_a), games=500, base_seed=0)
    run_matchup(spec, transcript_path=str(path))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        records = read_transcripts(str(path))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    plies = sum(len(r.plies) for r in records)
    assert len(records) == 500
    assert any("raw_reply" in (p.annotation or {}) for r in records for p in r.plies)
    assert held <= 100 * plies


def test_unreadable_transcript_reports_the_line(tmp_path):
    path = tmp_path / "games.jsonl"
    path.write_text('{"type": "game", "game": 0, "seed": 0, "p0": "a", "p1": "b", "p0_role": "shrinker"}\nnot json\n')
    with pytest.raises(FormatError) as err:
        read_transcripts(str(path))
    assert "line 2" in str(err.value)


GAME_LINE = '{"type": "game", "game": 0, "seed": 0, "p0": "a", "p1": "b", "p0_role": "shrinker"}\n'


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
        ("game", "p0", 7, "p0 must be str"),
        ("game", "p1", None, "p1 must be str"),
        ("game", "p0_role", "amplifier", "p0_role must be 'shrinker', got 'amplifier'"),
        ("game", "p0_role", 0, "p0_role must be 'shrinker', got 0"),
        ("ply", "ply", 0, "ply must be at least 1, got 0"),
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
        ("annotation", ["x"]),
        ("annotation", "fallback"),
        ("status", 3),
        ("status", None),
    ],
)
def test_transcript_ply_fields_are_type_checked(tmp_path, field, value):
    # an "action": "3" used to read cleanly and then fail in verify_record
    # with a bare TypeError; an "annotation": ["x"] in MatchStats.add and
    # classify_failure with a bare AttributeError
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


# one replacement of each kind a JSON field can hold, and the labels the rules produce
SWEEP_VALUES = (None, True, False, 0, 1, -1, 7, 0.0, -0.0, "", "x", "ongoing", "shrinker", "amplifier:sum_exceeded_20",
                [], [2, 1, 3, 1, 2], {}, {"fallback": True})
DELETED = object()


def test_every_one_field_edit_is_rejected_or_reads_back(tmp_path, solved):
    # each line of the second game, each field set to each value or deleted: the reader either
    # rejects the file, or its records write the same bytes back and replay and tag without a traceback
    replies = ["I refuse.", "DRAIN 9", "DRAIN 0", "AMPLIFY 1"] * 5
    records = [play_game(LlmAgent(ScriptedBackend(replies)), HeuristicAgent(), seed=s, game_id=s) for s in range(2)]
    lines = "".join(record_to_jsonl(r) for r in records).splitlines(keepends=True)
    path = tmp_path / "games.jsonl"
    outcomes = {"rejected": 0, "read": 0}
    for lineno in range(len(records[0].plies) + 2, len(lines)):
        obj = json.loads(lines[lineno])
        for name in obj:
            for value in (*SWEEP_VALUES, DELETED):
                edited = {**obj, name: value}
                if value is DELETED:
                    del edited[name]
                text = "".join(lines[:lineno]) + _dump(edited) + "".join(lines[lineno + 1:])
                path.write_text(text)
                try:
                    read = read_transcripts(str(path))
                except FormatError:
                    outcomes["rejected"] += 1
                    continue
                outcomes["read"] += 1
                if name == "annotation" and value is DELETED:  # a ply without one reads as null
                    text = text.replace(_dump(edited), _dump({**edited, "annotation": None}))
                assert "".join(record_to_jsonl(r) for r in read) == text
                for record in read:
                    if not verify_record(record):  # classify_failure takes records that replay
                        classify_failure(record, solved)
    assert outcomes["rejected"] and outcomes["read"]


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

    @staticmethod
    def counted(records) -> MatchStats:
        stats = MatchStats()
        for record in records:
            stats.add(record)
        return stats

    def test_aggregate_counts(self):
        stats = self.counted(play_game(RandomAgent(), RandomAgent(), seed=s) for s in range(8))
        assert stats.games == 8
        assert stats.wins_p0 + stats.wins_p1 == 8
        assert stats.wins_for(Role.SHRINKER) == stats.wins_p0
        assert stats.win_rate_for(Role.AMPLIFIER) == stats.wins_p1 / 8
        assert stats.avg_moves == stats.total_plies / 8
        assert sum(stats.reasons.values()) == 8
        assert stats.llm_plies == 0 and stats.invalid_moves == 0 and stats.invalid_fraction == 0.0
        assert stats.fallback_count == 0 and stats.transport_failures == 0

    def test_aggregate_is_order_independent(self):
        records = [play_game(RandomAgent(), RandomAgent(), seed=s) for s in range(6)]
        shuffled = list(records)
        random.Random(0).shuffle(shuffled)
        assert self.counted(records) == self.counted(shuffled)

    def test_stats_csv_layout(self, tmp_path):
        stats = self.counted(play_game(RandomAgent(), RandomAgent(), seed=s) for s in range(4))
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

    def test_every_counter_on_a_matchup_where_none_is_zero(self, tmp_path):
        class FlakyBackend:
            """Scripted replies, except that every 4th request fails in transport."""

            name = "flaky"

            def __init__(self):
                self.inner = ScriptedBackend(["garbage", "DRAIN 0", "AMPLIFY 9", "drain 1"] * 5)
                self.calls = 0

            def complete(self, conversation):
                self.calls += 1
                if self.calls % 4 == 0:
                    raise TransportError("connection reset")
                return self.inner.complete(conversation)

        q_amplifier = load_rows(Role.AMPLIFIER, {"4,1,3,1,2|1": {0: 1.0}})
        spec = MatchupSpec(
            p0=lambda seed: LlmAgent(FlakyBackend()),
            p1=lambda seed: GreedyQAgent(q_amplifier),
            games=40,
            base_seed=3,
        )
        path = tmp_path / "t.jsonl"
        stats = run_matchup(spec, transcript_path=str(path))
        counts = (stats.llm_plies, stats.invalid_moves, stats.fallback_count, stats.transport_failures)
        assert (stats.games, stats.wins_p0, stats.total_plies) == (40, 19, 505)
        assert counts == (266, 168, 237, 59)
        assert stats.reasons == {
            "single_cell": 14,
            "sum_exceeded_20": 8,
            "tiebreak_at_least_3": 13,
            "tiebreak_fewer_than_3": 5,
        }
        assert (stats.wins_p1, stats.win_rate_p0, stats.avg_moves) == (21, 19 / 40, 505 / 40)
        assert stats.invalid_fraction == 168 / 266
        # the same counts, recounted by hand from the transcript
        annotations = [p.annotation or {} for r in read_transcripts(str(path)) for p in r.plies]
        llm = [a for a in annotations if "raw_reply" in a]
        assert counts == (
            len(llm),
            sum(1 for a in llm if a.get("substituted")),
            sum(1 for a in annotations if a.get("fallback")),
            sum(1 for a in annotations if a.get("transport_failure")),
        )


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

    # SHA-256 of a 200-game transcript from base seed 500, with the matchup's
    # fallback and substitution counts; taken before the agents became seats,
    # so a change to any agent's moves or to the order of its draws shows here
    PINNED = {
        "heuristic-vs-rl": ("7392f1cd70b98224508f25b1be59f2319a4d7598be57f6c5b973baef50354d8c", 0, 0),
        "random-vs-random": ("97ae0e653e21f76237b8ff45f858d116ac2bfea7476a0cd2e5a7573bd3126787", 0, 0),
        "optimal-vs-random": ("e1065d74c8ebb10d78d57d817c0d348165c97641dcaded736f30c3f0599cea52", 0, 0),
        "llm-vs-rl": ("ce4b8093023e18582b4c9b9d16edb21aa6f600273f4c64cff709b1d6e8d7672a", 22, 650),
    }

    @pytest.mark.parametrize("name", PINNED)
    def test_transcripts_are_pinned(self, tmp_path, name):
        def noisy_llm(seed):  # criterion 7's chat model: half garbage, half DRAIN 0
            rng = random.Random(seed ^ 0xA5A5)
            replies = ["I refuse to answer." if rng.random() < 0.5 else "DRAIN 0" for _ in range(20)]
            return LlmAgent(ScriptedBackend(replies), name="llm:scripted-noise")

        p0, p1 = {
            "heuristic-vs-rl": ("heuristic", f"rl:{FIXTURE}"),
            "random-vs-random": ("random", "random"),
            "optimal-vs-random": ("optimal", "random"),
            "llm-vs-rl": (noisy_llm, f"rl:{FIXTURE}"),
        }[name]
        path = tmp_path / "t.jsonl"
        stats = run_matchup(MatchupSpec(p0=p0, p1=p1, games=200, base_seed=500), transcript_path=str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert (digest, stats.fallback_count, stats.invalid_moves) == self.PINNED[name]

    def test_zero_games_is_a_config_error(self):
        with pytest.raises(ConfigError):
            run_matchup(MatchupSpec(p0="random", p1="random", games=0))


class TestAgentFactory:
    def test_known_ids(self, tmp_path, small_tables):
        q_s, _, _ = small_tables
        q_path = tmp_path / "q.txt"
        save_qtable(q_s, str(q_path))
        for identifier in ("random", "heuristic", "optimal", f"rl:{q_path}"):
            agent = agent_factory(identifier, Role.SHRINKER)(0)
            assert hasattr(agent, "choose")

    def test_scripted_llm_reads_a_reply_file(self, tmp_path):
        script = tmp_path / "replies.txt"
        script.write_text("DRAIN 1\nAMPLIFY 0\n")
        agent = agent_factory(f"llm:scripted={script}", Role.SHRINKER)(0)
        action = agent.choose(GameState((2, 1, 3, 1, 2), 0), Role.SHRINKER, random.Random(0))
        assert action.text == "DRAIN 1"

    def test_missing_table_file(self):
        with pytest.raises(ConfigError):
            agent_factory("rl:/nonexistent/q.txt", Role.SHRINKER)

    def test_table_in_the_wrong_seat(self):
        # an Amplifier's table never holds a Shrinker's state: every ply would fall back to random
        with pytest.raises(ConfigError, match="has #role=amplifier and cannot play the shrinker"):
            agent_factory(f"rl:{FIXTURE}", Role.SHRINKER)
        assert agent_factory(f"rl:{FIXTURE}", Role.AMPLIFIER)(0).qtable.role is Role.AMPLIFIER

    def test_matchup_checks_both_seats_before_any_game(self, tmp_path):
        shrinker_table = tmp_path / "q_s.txt"
        save_qtable(load_rows(Role.SHRINKER, {}), str(shrinker_table))
        played, path = [], tmp_path / "t.jsonl"

        def spy(seed):
            played.append(seed)
            return RandomAgent()

        for p0, p1 in ((f"rl:{FIXTURE}", spy), (spy, f"rl:{shrinker_table}")):
            with pytest.raises(ConfigError, match="cannot play"):
                run_matchup(MatchupSpec(p0=p0, p1=p1, games=5), transcript_path=str(path))
        assert played == [] and not path.exists()

    def test_unknown_and_reserved_ids(self):
        with pytest.raises(ConfigError):
            agent_factory("alphazero", Role.SHRINKER)
        with pytest.raises(ConfigError):
            agent_factory("human", Role.SHRINKER)
        with pytest.raises(ConfigError):
            agent_factory("llm:telepathy", Role.SHRINKER)


class TestClassifier:
    def test_clean_optimal_game_has_no_tags(self):
        record = play_game(agent_factory("optimal", Role.SHRINKER)(0), agent_factory("optimal", Role.AMPLIFIER)(0), seed=0)
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

    def test_a_bust_with_no_safe_alternative_is_not_sum_blindness(self, make_scripted_record):
        # at move 15 with five cells every move loses on the spot: doubling the 8
        # busts the sum, and any other move leaves at least three cells at the tiebreak
        record = make_scripted_record("8,1,3,1,2|14", ["AMPLIFY 0"], [], seed=0)
        assert [(p.ply, p.cells_after) for p in record.plies] == [(15, (16, 1, 3, 1, 2))]
        assert record.outcome is TerminalStatus.SUM_EXCEEDED_20
        assert classify_failure(record) == []

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
