"""Training-loop tests.

The numeric cases were computed by hand from the update rule
``q <- q + alpha * (r + gamma * max_a' q(s', a') - q)`` before being frozen
here, so the implementation is checked against independent arithmetic.
"""

import math

import pytest

from flux.engine import Role, state_from_key
from flux.errors import ConfigError, FormatError
from flux.qlearn import (
    CURVE_HEADER,
    QTable,
    TrainConfig,
    epsilon_at,
    final_epsilon,
    load_qtable,
    mode_for_episode,
    q_update,
    save_qtable,
    train,
    write_curve,
)
from flux.solver import default_solved, reachable_states
from flux.engine import initial_state, role_to_move, state_key


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
        q_update(q, "s|0", 0, 1.0, None, [], TrainConfig())
        # 0 + 0.2 * (1 - 0) = 0.2
        assert q.entries["s|0"][0] == 0.2

    def test_bootstrapped_backup(self):
        q = QTable(role=Role.SHRINKER)
        q.entries["n|1"] = {2: 1.0, 3: -0.5}
        q_update(q, "s|0", 4, 0.0, "n|1", [2, 3], TrainConfig())
        # target = 0 + 0.92 * max(1.0, -0.5) = 0.92; update = 0.2 * 0.92
        assert q.entries["s|0"][4] == pytest.approx(0.184, abs=1e-12)

    def test_unseen_next_state_bootstraps_to_zero(self):
        q = QTable(role=Role.SHRINKER)
        q.entries["s|0"] = {1: 0.3}
        q_update(q, "s|0", 1, 0.0, "n|1", [0, 1], TrainConfig())
        # target = 0 + 0.92 * 0 = 0; update = 0.3 + 0.2 * (0 - 0.3)
        assert q.entries["s|0"][1] == pytest.approx(0.24, abs=1e-12)

    def test_full_step_size_overwrites(self):
        q = QTable(role=Role.SHRINKER)
        q.entries["s|0"] = {0: -3.0}
        q_update(q, "s|0", 0, 1.0, None, [], TrainConfig(alpha=1.0))
        assert q.entries["s|0"][0] == 1.0


class TestQTable:
    def test_reads_default_to_zero_without_insertion(self):
        q = QTable(role=Role.AMPLIFIER)
        assert q.value("nope|0", 3) == 0.0
        assert q.entries == {}

    def test_best_code_breaks_ties_low(self):
        q = QTable(role=Role.SHRINKER)
        q.entries["k|0"] = {2: 0.7, 5: 0.7, 1: 0.1}
        assert q.best_code("k|0", 10) == 2
        # an unseen state: all codes tie at zero
        assert q.best_code("other|0", 4) == 0


class TestTraining:
    def test_same_seed_reproduces_everything(self):
        cfg = TrainConfig(episodes=400, seed=5)
        a = train(cfg)
        b = train(cfg)
        assert a[0].entries == b[0].entries
        assert a[1].entries == b[1].entries
        assert [p.__dict__ for p in a[2]] == [p.__dict__ for p in b[2]]

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
        q = QTable(role=Role.SHRINKER, episodes=5, config_digest="abc123")
        q.entries["2,1,3,1,2|0"] = {0: -0.5, 3: 0.25}
        q.entries["1,1|4"] = {1: 1.0}
        path = tmp_path / "q.txt"
        save_qtable(q, str(path))
        assert path.read_text() == (
            "#role=shrinker\n"
            "#episodes=5\n"
            "#config_digest=abc123\n"
            "1,1|4\t1=1.0\n"
            "2,1,3,1,2|0\t0=-0.5;3=0.25\n"
        )

    def test_missing_role_header_is_an_error(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("2,1|0\t0=1.0\n")
        with pytest.raises(FormatError):
            load_qtable(str(path))

    HEADERS = "#role=shrinker\n#episodes=10\n#config_digest=0123456789abcdef\n"

    def test_unparseable_value_reports_the_line(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text(self.HEADERS + "2,1|0\t0=banana\n")
        with pytest.raises(FormatError) as err:
            load_qtable(str(path))
        assert "line 4" in str(err.value)

    def test_out_of_range_code_is_an_error(self, tmp_path):
        path = tmp_path / "q.txt"
        # two cells allow codes 0..3 only
        path.write_text(self.HEADERS + "2,1|0\t4=0.5\n")
        with pytest.raises(FormatError) as err:
            load_qtable(str(path))
        assert "code 4 out of range" in str(err.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_is_an_error(self, tmp_path, value):
        path = tmp_path / "q.txt"
        path.write_text(self.HEADERS + "2,1|0\t0=0.5\n" + f"2,2|0\t1={value}\n")
        with pytest.raises(FormatError) as err:
            load_qtable(str(path))
        assert "line 5" in str(err.value) and "non-finite value for code 1" in str(err.value)

    @pytest.mark.parametrize(
        "key", ["02,1,3,1,2|0", " 2,1,3,1,2|0", "2,1,3,1,2|00", "2,1,3,1,2|+0"]
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
        path.write_text(self.HEADERS + "2,1|0\t0=0.5\n" + f"{key}\t0=0.5\n")
        with pytest.raises(FormatError) as err:
            load_qtable(str(path))
        assert "line 5" in str(err.value) and "finished state" in str(err.value)

    def test_curve_file(self, tmp_path):
        _, _, curve = train(TrainConfig(episodes=3, seed=2))
        path = tmp_path / "curve.csv"
        write_curve(curve, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CURVE_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1" and first[2] == "1.0"
