"""Training-loop tests.

The numeric cases were computed by hand from the update rule
``q <- q + alpha * (r + gamma * max_a' q(s', a') - q)`` before being frozen
here, so the implementation is checked against independent arithmetic.
"""

import hashlib
import math
import random
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import flux.engine
import flux.qlearn
from flux.agents import GreedyQAgent
from flux.engine import GameState, Role, initial_state, state_from_key
from flux.errors import ConfigError, FormatError
from flux.qlearn import (
    CURVE_HEADER,
    Curve,
    CurvePoint,
    QTable,
    TrainConfig,
    epsilon_at,
    final_epsilon,
    load_qtable,
    mode_for_episode,
    q_update,
    save_qtable,
    standard_graph,
    train,
    write_curve,
)
from flux.solver import reachable_states, solve

from conftest import load_rows

FIXTURE = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / "q_amplifier.txt"
# live states of the standard game: the opening, one of its children, and a row of two cells
OPENING, CHILD, PAIR = "2,1,3,1,2|0", "4,1,3,1,2|1", "2,2|4"


def number(key):
    graph = standard_graph()
    return graph.number(graph.find(key))


class TestConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.episodes == 30_000
        assert cfg.alpha == 0.2
        assert cfg.gamma == 0.92
        assert cfg.eps_start == 1.0
        assert cfg.eps_min == 0.05
        assert cfg.eps_decay == 0.9997
        cfg.validate()  # the defaults must of course be valid

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.2},
            {"gamma": -0.1},
            {"gamma": 1.0001},
            {"episodes": -1},
            {"eps_start": 1.4},
            {"eps_min": -0.2},
            {"curriculum": "alternating"},
        ],
    )
    def test_bad_values_are_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs).validate()

    def test_boundary_values_are_fine(self):
        TrainConfig(alpha=1.0, gamma=1.0).validate()
        TrainConfig(gamma=0.0).validate()

    def test_digest_is_stable_and_sensitive(self):
        a = TrainConfig().digest()
        b = TrainConfig().digest()
        c = TrainConfig(seed=1).digest()
        assert a == b
        assert a != c
        assert len(a) == 16
        int(a, 16)  # hex

    def test_default_digest_is_pinned(self):
        # the header of every table the standard recipe writes, the fixture's included;
        # the fixed rewards are hashed with the fields, so moving them cannot change it
        assert TrainConfig().digest() == "d1424ee65e762169"

    def test_fields_are_read_only(self):
        cfg = TrainConfig()
        with pytest.raises(AttributeError):
            cfg.seed = 1
        assert cfg == TrainConfig() and cfg.seed == 0


class TestEpsilon:
    def test_schedule_start(self):
        cfg = TrainConfig()
        assert epsilon_at(0, cfg) == 1.0
        assert epsilon_at(1, cfg) == 0.9997

    def test_floor_is_reached_just_before_episode_10000(self):
        cfg = TrainConfig()
        assert epsilon_at(9984, cfg) == pytest.approx(0.05000414535573517, abs=0)
        assert epsilon_at(9984, cfg) > 0.05
        assert epsilon_at(9985, cfg) == 0.05
        assert epsilon_at(29_999, cfg) == 0.05

    def test_final_epsilon(self):
        assert final_epsilon(TrainConfig()) == 0.05
        assert final_epsilon(TrainConfig(episodes=10)) > 0.99
        # no episode ran, so the schedule never left its start
        assert final_epsilon(TrainConfig(episodes=0)) == 1.0
        assert final_epsilon(TrainConfig(episodes=0, eps_start=0.5)) == 0.5


class TestModeSchedule:
    def test_round_robin_cycles_through_three_modes(self):
        cfg = TrainConfig()
        assert [mode_for_episode(e, cfg) for e in range(7)] == [1, 2, 3, 1, 2, 3, 1]

    def test_block_schedule_splits_in_thirds(self):
        cfg = TrainConfig(curriculum="block")
        assert mode_for_episode(0, cfg) == 1
        assert mode_for_episode(9_999, cfg) == 1
        assert mode_for_episode(10_000, cfg) == 2
        assert mode_for_episode(19_999, cfg) == 2
        assert mode_for_episode(20_000, cfg) == 3
        assert mode_for_episode(29_999, cfg) == 3


class TestUpdate:
    def test_terminal_backup(self):
        q = QTable(role=Role.SHRINKER)
        q_update(q, number(OPENING), 0, 1.0, None, 0, TrainConfig())
        # 0 + 0.2 * (1 - 0) = 0.2
        assert q.entries[OPENING][0] == 0.2

    def test_bootstrapped_backup(self):
        q = load_rows(Role.SHRINKER, {CHILD: {2: 1.0, 3: -0.5}})
        q_update(q, number(OPENING), 4, 0.0, number(CHILD), 4, TrainConfig())
        # target = 0 + 0.92 * max(1.0, -0.5) = 0.92; update = 0.2 * 0.92
        assert q.entries[OPENING][4] == pytest.approx(0.184, abs=1e-12)

    def test_unseen_next_state_bootstraps_to_zero(self):
        q = load_rows(Role.SHRINKER, {OPENING: {1: 0.3}})
        q_update(q, number(OPENING), 1, 0.0, number(CHILD), 2, TrainConfig())
        # target = 0 + 0.92 * 0 = 0; update = 0.3 + 0.2 * (0 - 0.3)
        assert q.entries[OPENING][1] == pytest.approx(0.24, abs=1e-12)

    def test_full_step_size_overwrites(self):
        q = load_rows(Role.SHRINKER, {OPENING: {0: -3.0}})
        q_update(q, number(OPENING), 0, 1.0, None, 0, TrainConfig(alpha=1.0))
        assert q.entries[OPENING][0] == 1.0


class TestQTable:
    def test_reads_default_to_zero_without_insertion(self):
        q = QTable(role=Role.AMPLIFIER)
        assert q.best_code(number(PAIR), 3) == 0
        assert q.entries == {}

    def test_best_code_breaks_ties_low(self):
        q = load_rows(Role.SHRINKER, {OPENING: {2: 0.7, 5: 0.7, 1: 0.1}})
        assert q.best_code(number(OPENING), 10) == 2
        # an unseen state: all codes tie at zero
        assert q.best_code(number(PAIR), 4) == 0

    def test_best_code_matches_an_argmax_over_every_code(self):
        # seeded rows over live states 0-1999, each with codes drawn from its own 4 to 10
        # legal ones: gaps, ties, negative values and -0.0, stored in random order;
        # an absent code is worth 0.0, and 0.0 ties -0.0
        rng = random.Random(5)
        graph = standard_graph()
        rows = {}
        for n in range(2000):
            n_codes = len(graph.kids[graph.live[n] % graph.width])
            codes = rng.sample(range(n_codes), rng.randint(1, n_codes))
            rows[n] = n_codes, {code: rng.choice((0.5, 0.25, 0.0, -0.0, -0.25, -0.5)) for code in codes}
        q = load_rows(Role.SHRINKER, {graph.key(graph.live[n]): row for n, (_, row) in rows.items()})
        for n, (n_codes, row) in rows.items():
            expected = max(range(n_codes), key=lambda c: (row.get(c, 0.0), -c))
            assert q.best_code(n, n_codes) == expected, row


class TestRowView:
    ROWS = {OPENING: {0: -0.5, 9: 0.25}, PAIR: {1: 1.0, 0: -0.0}}

    def test_a_row_read_is_a_copy(self):
        q = load_rows(Role.SHRINKER, self.ROWS)
        row = q.entries[PAIR]
        row[1], row[3] = -7.0, 7.0
        assert q.entries[PAIR] == {1: 1.0, 0: -0.0}
        assert q.best_code(number(PAIR), 4) == 1

    def test_an_empty_table_equals_an_empty_dict(self):
        q = QTable(role=Role.AMPLIFIER)
        assert q.entries == {} and {} == q.entries
        assert len(q.entries) == 0 and list(q.entries) == [] and "2,1|1" not in q.entries and 5 not in q.entries

    def test_loaded_rows_survive_save_and_load(self, tmp_path):
        q = load_rows(Role.SHRINKER, self.ROWS, episodes=5, config_digest="abc123")
        assert q.entries == self.ROWS
        path = tmp_path / "q.txt"
        save_qtable(q, str(path))
        back = load_qtable(str(path))
        assert back.entries == q.entries and back.entries == self.ROWS
        assert list(back.entries) == sorted(self.ROWS)
        q_update(back, number(PAIR), 2, 1.0, None, 0, TrainConfig(alpha=0.5))
        assert back.entries != q.entries and back.entries[PAIR] == {0: -0.0, 1: 1.0, 2: 0.5}

    def test_the_view_is_read_only(self):
        # rows enter a table only by q_update and load_qtable; a write through the view
        # would skip the reader's checks, such as code 9 on a state of two cells
        q = load_rows(Role.SHRINKER, self.ROWS)
        for key in (PAIR, "1,2|5"):
            with pytest.raises(TypeError):
                q.entries[key] = {9: 1.0}
        with pytest.raises(TypeError):
            del q.entries[PAIR]
        with pytest.raises(TypeError):
            QTable(Role.SHRINKER, entries=self.ROWS)
        assert q.entries == self.ROWS and "1,2|5" not in q.entries


class TestTraining:
    def test_same_seed_reproduces_everything(self):
        cfg = TrainConfig(episodes=400, seed=5)
        a = train(cfg)
        b = train(cfg)
        assert a[0].entries == b[0].entries
        assert a[1].entries == b[1].entries
        assert [p._asdict() for p in a[2]] == [p._asdict() for p in b[2]]

    def test_different_seeds_diverge(self):
        a = train(TrainConfig(episodes=400, seed=5))
        b = train(TrainConfig(episodes=400, seed=6))
        assert a[0].entries != b[0].entries

    def test_curve_has_one_point_per_logged_episode(self, small_tables):
        _, _, curve = small_tables
        assert len(curve) == 1500
        assert curve[0].episode == 0
        assert curve[-1].episode == 1499
        assert all(p.mode in (1, 2, 3) for p in curve)

    def test_tables_only_contain_own_turn_states(self, small_tables):
        q_s, q_a, _ = small_tables
        assert q_s.role is Role.SHRINKER
        assert q_a.role is Role.AMPLIFIER
        for key in q_s.entries:
            assert state_from_key(key).moves_played % 2 == 0
        for key in q_a.entries:
            assert state_from_key(key).moves_played % 2 == 1

    def test_trained_states_are_reachable(self, small_tables, solved):
        q_s, q_a, _ = small_tables
        live = set(solved.value)
        assert set(q_s.entries) <= live
        assert set(q_a.entries) <= live

    def test_values_respect_the_discount_bound(self, small_tables):
        # with |r| <= 1 and gamma = 0.92 no value can leave [-1/(1-gamma), +1/(1-gamma)]
        bound = 1.0 / (1.0 - 0.92)
        for table in small_tables[:2]:
            for row in table.entries.values():
                for v in row.values():
                    assert -bound <= v <= bound

    def test_an_episode_walks_the_graph(self, monkeypatch):
        # a ply reads the next state's number off the graph: status_of runs once a
        # game, for the winner, and a row is appended once, when its state is first updated
        calls = {"status_of": 0, "_row": 0}

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(flux.qlearn, "status_of", counting("status_of", flux.engine.status_of))
        monkeypatch.setattr(QTable, "_row", counting("_row", QTable._row))
        q_s, q_a, curve = train(TrainConfig(episodes=300, seed=2))
        assert calls == {"status_of": 300, "_row": len(q_s.entries) + len(q_a.entries)}
        assert sum(p.plies for p in curve) > 2000

    def test_zero_episodes_yields_empty_tables(self):
        q_s, q_a, curve = train(TrainConfig(episodes=0))
        assert q_s.entries == {} and q_a.entries == {}
        assert curve == []


class TestSerialization:
    def test_round_trip_is_exact(self, tmp_path, small_tables):
        q_s, _, _ = small_tables
        path = tmp_path / "q.txt"
        save_qtable(q_s, str(path))
        back = load_qtable(str(path))
        assert back.role is q_s.role
        assert back.episodes == q_s.episodes
        assert back.config_digest == q_s.config_digest
        assert back.entries == q_s.entries  # float-exact via repr round-trip

    def test_file_layout(self, tmp_path):
        rows = {"2,1,3,1,2|0": {0: -0.5, 3: 0.25}, "1,2|5": {1: 1.0}}
        q = load_rows(Role.SHRINKER, rows, episodes=5, config_digest="abc123")
        path = tmp_path / "q.txt"
        save_qtable(q, str(path))
        assert path.read_text() == (
            "#role=shrinker\n"
            "#episodes=5\n"
            "#config_digest=abc123\n"
            "1,2|5\t1=1.0\n"
            "2,1,3,1,2|0\t0=-0.5;3=0.25\n"
        )

    def test_missing_role_header_is_an_error(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("2,1|0\t0=1.0\n")
        with pytest.raises(FormatError):
            load_qtable(str(path))

    HEADERS = "#role=shrinker\n#episodes=10\n#config_digest=0123456789abcdef\n"

    @pytest.mark.parametrize(
        "headers, message",
        [
            ("#role=shrinker\n#episodes=-1\n", "line 2: #episodes=-1 is not a count"),
            ("#role=shrinker\n#episodes=+1\n", "line 2: #episodes=+1 is not a count"),
            ("#role=shrinker\n#episodes=01\n", "line 2: #episodes=01 is not a count"),
            ("#role=shrinker\n#episodes=1_0\n", "line 2: #episodes=1_0 is not a count"),
            ("#role=shrinker\n#episodes=\n", "line 2: #episodes= is not a count"),
            ("#role=shrinker\n#role=amplifier\n", "line 2: repeated header '#role=amplifier'"),
            ("#role=shrinker\n#seed=3\n", "line 2: unknown header '#seed=3'"),
            ("#role=shrinker\n#episodes\n", "line 2: malformed header '#episodes'"),
            ("#episodes=3\n#role=bogus\n", "line 2: bad header value"),
            ("#episodes=3\n", "line 3: missing #role= header"),
        ],
        ids=["negative", "plus", "leading-zero", "underscore", "empty", "repeated", "unknown", "malformed",
             "bad-role", "missing"],
    )
    def test_a_header_save_qtable_would_not_write_is_an_error(self, tmp_path, headers, message):
        # int() reads -1, +1, 01 and 1_0, and a second #role= used to override the first;
        # a bad or missing header is reported on its own line, or at the first row
        path = tmp_path / "q.txt"
        path.write_text(headers + "#config_digest=abc123\n2,2|4\t0=0.5\n")
        with pytest.raises(FormatError) as err:
            load_qtable(str(path))
        assert message in str(err.value)

    # the sweep's replacements: numbers spelled as save_qtable does and does not write them,
    # separators, the other fields' text and a byte that is not ASCII
    SWEEP = ["", "0", "1", "3", "9", "10", "-1", "+1", "01", "1_0", " 1", "1 ", "0.5", "-0.0", "1e-05", "1e309",
             "nan", "-inf", "x", "=", ";", "\t", "#", "shrinker", "2,2|4", "\u00e9"]

    def test_every_one_field_edit_is_rejected_or_round_trips(self, tmp_path):
        # the table file is the only way rows enter a table from outside: each edit of one
        # header name or value, key, code or value, and each deleted line, must raise
        # FormatError or load a table that saves and loads back unchanged
        q_s, _, _ = train(TrainConfig(episodes=3, seed=0))
        path, again = tmp_path / "q.txt", tmp_path / "again.txt"
        save_qtable(q_s, str(path))
        lines = path.read_text().splitlines()
        edits = []
        for i, line in enumerate(lines):
            edits.append(lines[:i] + lines[i + 1 :])
            parts = re.split(r"(\t|;|=)", line)  # fields at even positions, separators between
            for f in range(0, len(parts), 2):
                for value in self.SWEEP:
                    edited = "".join(parts[:f] + [value] + parts[f + 1 :])
                    edits.append(lines[:i] + [edited] + lines[i + 1 :])
        outcomes = Counter()
        for edit in edits:
            path.write_text("".join(line + "\n" for line in edit), encoding="utf-8")
            try:
                back = load_qtable(str(path))
            except FormatError:
                outcomes["rejected"] += 1
                continue
            outcomes["loaded"] += 1
            save_qtable(back, str(again))
            twice = load_qtable(str(again))
            assert (twice.role, twice.episodes, twice.config_digest, twice.entries) == (
                back.role, back.episodes, back.config_digest, back.entries), edit
        assert len(edits) > 1000 and outcomes["loaded"] > 100 and outcomes["rejected"] > 500, outcomes

    def test_unparseable_value_reports_the_line(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text(self.HEADERS + "2,2|4\t0=banana\n")
        with pytest.raises(FormatError) as err:
            load_qtable(str(path))
        assert "line 4" in str(err.value)

    def test_out_of_range_code_is_an_error(self, tmp_path):
        path = tmp_path / "q.txt"
        # two cells allow codes 0..3 only
        for code in (4, -1):
            path.write_text(self.HEADERS + f"2,2|4\t{code}=0.5\n")
            with pytest.raises(FormatError) as err:
                load_qtable(str(path))
            assert f"line 4: code {code} out of range" in str(err.value)

    @pytest.mark.parametrize("code", ["+1", "01", "0001", "-0"])
    def test_a_code_save_qtable_would_not_write_is_an_error(self, tmp_path, code):
        # int() reads each of these as a legal code, but save_qtable writes str(code)
        path = tmp_path / "q.txt"
        path.write_text(self.HEADERS + f"2,2|4\t{code}=0.5\n")
        with pytest.raises(FormatError) as err:
            load_qtable(str(path))
        assert f"line 4: code {code!r} is not a code save_qtable writes" in str(err.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_is_an_error(self, tmp_path, value):
        path = tmp_path / "q.txt"
        path.write_text(self.HEADERS + "2,2|4\t0=0.5\n" + f"2,3|4\t1={value}\n")
        with pytest.raises(FormatError) as err:
            load_qtable(str(path))
        assert "line 5" in str(err.value) and "non-finite value for code 1" in str(err.value)

    @pytest.mark.parametrize(
        "key",
        ["02,1,3,1,2|0", " 2,1,3,1,2|0", "2,1,3,1,2|00", "2,1,3,1,2|+0", "2,01|0", "+2,1|0", "2,,1|0", "|0", "2,1|", "2,1", "2_0,1|0", "2,1|0|0", ""],
    )
    def test_non_canonical_key_is_an_error(self, tmp_path, key):
        # int() reads these, but state_key never writes them, so the row
        # would never be found and every lookup would fall back to random
        path = tmp_path / "q.txt"
        path.write_text(self.HEADERS + f"{key}\t0=0.5\n")
        with pytest.raises(FormatError) as err:
            load_qtable(str(path))
        assert "line 4" in str(err.value) and "non-canonical" in str(err.value)

    @pytest.mark.parametrize("key", ["25,1|0", "2,1|15", "5|3"])
    def test_finished_state_key_is_an_error(self, tmp_path, key):
        # nobody moves in a finished state, so no lookup could reach the row
        path = tmp_path / "q.txt"
        path.write_text(self.HEADERS + "2,2|4\t0=0.5\n" + f"{key}\t0=0.5\n")
        with pytest.raises(FormatError) as err:
            load_qtable(str(path))
        assert "line 5" in str(err.value) and "finished state" in str(err.value)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("2,1,3,1,2|0\t0=0.5\n2,1,3,1,2|0\t1=0.5\n", "repeated state key '2,1,3,1,2|0'"),
            ("2,2|4\t1=0.5\n2,1,3,1,2|0\t0=0.5;0=-0.5\n", "repeated code 0 for key '2,1,3,1,2|0'"),
        ],
        ids=["key", "code"],
    )
    def test_repeated_key_or_code_is_an_error(self, tmp_path, body, message):
        # save_qtable writes neither; a later entry used to overwrite the first
        path = tmp_path / "q.txt"
        path.write_text(self.HEADERS + body)
        with pytest.raises(FormatError) as err:
            load_qtable(str(path))
        assert "line 5" in str(err.value) and message in str(err.value)

    def test_row_with_more_cells_than_the_opening_is_an_error(self, tmp_path):
        # rows never grow, so no game reaches six cells and no lookup finds the row
        path = tmp_path / "q.txt"
        path.write_text(self.HEADERS + "2,2|4\t0=0.5\n" + "1,1,1,1,1,1|0\t0=0.5\n")
        with pytest.raises(FormatError) as err:
            load_qtable(str(path))
        assert "line 5" in str(err.value) and "unreachable state '1,1,1,1,1,1|0'" in str(err.value)

    @pytest.mark.parametrize("key", ["1,1|3", "2,1,3,1,2|1", "2,1|0"])
    def test_a_key_no_game_reaches_is_an_error(self, tmp_path, key):
        # canonical and live by the rules, but off the standard game's graph: no
        # table row is kept for a state that play never reaches
        path = tmp_path / "q.txt"
        path.write_text(self.HEADERS + "2,2|4\t0=0.5\n" + f"{key}\t0=0.5\n")
        with pytest.raises(FormatError) as err:
            load_qtable(str(path))
        assert "line 5" in str(err.value) and f"unreachable state {key!r} is never looked up" in str(err.value)

    @pytest.mark.parametrize(
        "cells", ["0=1_0", "0= 1.0", "0=1.0 ", "0=1.0\x0c", " 0=0.5", "1_0=0.5", "0=0.5;\t1=0.5", "0=0.5;1=0.2_5"]
    )
    def test_underscores_and_whitespace_are_errors(self, tmp_path, cells):
        # int() and float() read each of these, and a value of 1_0 was saved back as 10.0
        path = tmp_path / "q.txt"
        path.write_text(self.HEADERS + f"2,2|4\t{cells}\n")
        with pytest.raises(FormatError) as err:
            load_qtable(str(path))
        assert "line 4" in str(err.value) and "underscore or whitespace" in str(err.value)

    def test_loading_the_fixture_keeps_a_flat_table(self):
        fixture = FIXTURE
        load_qtable(str(fixture))  # fill the engine's caches first
        tracemalloc.start()
        try:
            q = load_qtable(str(fixture))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(q.entries) == 2438
        # a dict of dicts kept 1.09 MiB and peaked at 1.35 MiB, reading the whole file first
        assert kept <= 0.75 * 2**20 and peak <= 2**20

    def test_curve_file(self, tmp_path):
        _, _, curve = train(TrainConfig(episodes=3, seed=2))
        path = tmp_path / "curve.csv"
        write_curve(curve, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CURVE_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1" and first[2] == "1.0"


class TestCurve:
    def test_indexing_reads_points_like_a_list(self):
        _, _, curve = train(TrainConfig(episodes=10, seed=3))
        assert isinstance(curve, Curve) and len(curve) == 10
        assert curve[-1] == curve[9] and curve[-1].episode == 9
        assert curve[0] == CurvePoint(0, 1, 1.0, curve[0].winner, curve[0].plies,
                                      curve[0].states_shrinker, 0)
        part = curve[2:8:2]
        assert isinstance(part, Curve)
        assert [p.episode for p in part] == [2, 4, 6]
        assert part[-1] == curve[6]
        for index in (10, -11):
            with pytest.raises(IndexError):
                curve[index]

    def test_equals_a_list_of_the_same_points(self):
        _, _, curve = train(TrainConfig(episodes=12, seed=4))
        points = list(curve)
        assert curve == points and points == curve
        assert curve == tuple(points)
        assert curve != points[:-1]
        changed = points[:-1] + [CurvePoint(**{**points[-1]._asdict(), "plies": 99})]
        assert curve != changed
        assert curve != "not a curve"

    def test_training_curve_bytes_are_frozen(self, tmp_path):
        # training_curve.csv of a 3,000-episode run, as the list of points wrote it
        _, _, curve = train(TrainConfig(episodes=3000, seed=0))
        path = tmp_path / "training_curve.csv"
        write_curve(curve, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "b3d11ea2e959ffecc9ce75826b0ada86ddb19196201fed4a2b85391007cfad79"
        )

    def test_log_every_keeps_every_nth_episode_and_the_last(self):
        _, _, curve = train(TrainConfig(episodes=20, log_every=7))
        assert [p.episode for p in curve] == [0, 7, 14, 19]

    @pytest.mark.parametrize("curriculum", ["roundrobin", "block"])
    def test_mode_and_epsilon_come_from_the_config(self, curriculum):
        # the curve keeps neither: a read point takes them from its episode, as train once stored them
        cfg = TrainConfig(episodes=40, seed=5, curriculum=curriculum, eps_decay=0.9)
        _, _, curve = train(cfg)
        assert len(curve.columns) == 5 and curve.cfg is cfg
        for points in (curve, curve[3:30:4], curve[::-1]):
            assert points.cfg is cfg and len(points) > 1
            assert all((p.mode, p.epsilon) == (mode_for_episode(p.episode, cfg), epsilon_at(p.episode, cfg))
                       for p in points)
        assert {p.mode for p in curve} == {1, 2, 3} and curve[-1].epsilon == cfg.eps_min

    def test_a_point_costs_a_few_dozen_bytes(self):
        train(TrainConfig(episodes=30, seed=0))  # fill the engine's caches first
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            q_s, q_a, curve = train(TrainConfig(episodes=3000, seed=0))
            del q_s, q_a
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # a list of CurvePoint objects keeps about 235 B per point, seven columns 24 B
        assert kept / len(curve) <= 16


def test_another_solve_leaves_tables_and_agents_the_standard_graph(graph_steps):
    # tables number states on the solver's one kept standard graph, and a solve of
    # another root evicts nothing: loading a table, training, greedy play and the
    # reachable states step no row again
    load_qtable(str(FIXTURE))  # the numbering is built by now
    solve(GameState((4, 1, 3, 1, 2), 1))
    graph_steps[0] = 0
    q = load_qtable(str(FIXTURE))
    train(TrainConfig(episodes=30))
    GreedyQAgent(q).choose(initial_state(), Role.SHRINKER, random.Random(0))
    reachable_states()
    assert graph_steps == [0]
