"""End-to-end command-line tests; everything goes through main(argv)."""

import io
import json

import pytest

from flux.cli import main
from flux.qlearn import CURVE_HEADER, load_qtable
from flux.arena import STATS_CSV_HEADER, read_transcripts
from flux.engine import Role


def run(*argv):
    return main([str(a) for a in argv])


class TestTrain:
    def test_writes_tables_curve_and_config(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("train", "--episodes", 600, "--seed", 3, "-o", out) == 0
        q_s = load_qtable(str(out / "q_shrinker.txt"))
        q_a = load_qtable(str(out / "q_amplifier.txt"))
        assert q_s.role is Role.SHRINKER and q_a.role is Role.AMPLIFIER
        assert q_s.episodes == 600
        curve = (out / "training_curve.csv").read_text().splitlines()
        assert curve[0] == CURVE_HEADER
        assert len(curve) == 601
        cfg = json.loads((out / "run.cfg").read_text())
        assert cfg["command"] == "train"
        assert cfg["first_mover"] == "shrinker"
        assert cfg["config"]["episodes"] == 600
        assert cfg["config"]["seed"] == 3
        assert cfg["config_digest"] == q_s.config_digest
        stdout = capsys.readouterr().out
        assert "final epsilon" in stdout

    def test_bad_hyperparameters_exit_2(self, tmp_path, capsys):
        assert run("train", "--alpha", 0, "-o", tmp_path / "x") == 2
        assert "alpha" in capsys.readouterr().err

    def test_log_every_thins_the_curve(self, tmp_path):
        out = tmp_path / "run"
        assert run("train", "--episodes", 500, "--log-every", 100, "-o", out) == 0
        curve = (out / "training_curve.csv").read_text().splitlines()
        # episodes 0, 100, 200, 300, 400 and the forced final point 499
        assert len(curve) == 7


def test_solve_reports_the_exact_answers(capsys, tmp_path):
    out = tmp_path / "solved"
    assert run("solve", "--rational", "-o", out) == 0
    stdout = capsys.readouterr().out
    assert "shrinker to move 4426, amplifier to move 3984" in stdout
    assert "amplifier wins under best play in 15 plies" in stdout
    assert "0.29231361218346746" in stdout
    assert "156377851717220664978677083/534966026895360000000000000" in stdout
    assert (out / "solved.txt").exists()


class TestTournament:
    def test_stats_and_transcripts(self, tmp_path, capsys):
        out = tmp_path / "t"
        code = run(
            "tournament", "--p0", "random", "--p1", "heuristic",
            "--games", 10, "--seed", 4, "--transcripts", "-o", out,
        )
        assert code == 0
        stats = (out / "stats.csv").read_text().splitlines()
        assert stats[0] == STATS_CSV_HEADER
        assert len(stats) == 3  # one row per role
        records = read_transcripts(str(out / "transcripts.jsonl"))
        assert len(records) == 10
        assert "games" in capsys.readouterr().out

    def test_transcripts_flag_requires_an_output_dir(self, capsys):
        assert run("tournament", "--p0", "random", "--p1", "random", "--transcripts") == 2
        assert capsys.readouterr().err != ""

    def test_unknown_agent_exits_2(self, capsys):
        assert run("tournament", "--p0", "zergrush", "--p1", "random") == 2
        assert "zergrush" in capsys.readouterr().err

    def test_missing_table_exits_2(self, tmp_path, capsys):
        assert run("tournament", "--p0", f"rl:{tmp_path}/none.txt", "--p1", "random") == 2
        assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ("tournament", "--p0", "random", "--p1", "random"),
        ("benchmark", "--q-shrinker", "qs.txt", "--q-amplifier", "qa.txt"),
    ],
)
def test_jobs_is_not_an_option(command, capsys):
    with pytest.raises(SystemExit) as exit_:
        run(*command, "--jobs", 2)
    assert exit_.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


class TestReplayAndClassify:
    @pytest.fixture()
    def transcripts(self, tmp_path):
        out = tmp_path / "t"
        run(
            "tournament", "--p0", "random", "--p1", "random",
            "--games", 6, "--seed", 11, "--transcripts", "-o", out,
        )
        return out / "transcripts.jsonl"

    def test_replay_passes_on_genuine_transcripts(self, transcripts, capsys):
        assert run("replay", transcripts) == 0
        assert "replays exactly" in capsys.readouterr().out

    def test_replay_fails_on_tampering(self, transcripts, capsys):
        lines = transcripts.read_text().splitlines()
        # corrupt the first ply line's sum
        for i, line in enumerate(lines):
            obj = json.loads(line)
            if obj["type"] == "ply":
                obj["sum_after"] += 1
                lines[i] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
                break
        transcripts.write_text("\n".join(lines) + "\n")
        assert run("replay", transcripts) == 1
        assert "mismatches" in capsys.readouterr().err

    def test_replay_missing_file_exits_2(self, tmp_path, capsys):
        assert run("replay", tmp_path / "ghost.jsonl") == 2
        capsys.readouterr()

    @pytest.mark.parametrize("kind, field, value", [("game", "p0", 7), ("ply", "annotation", ["x"])])
    def test_classify_rejects_mistyped_fields(self, transcripts, tmp_path, capsys, kind, field, value):
        # both used to read cleanly, then end in a bare AttributeError traceback
        lines = transcripts.read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines) if json.loads(line)["type"] == kind)
        obj = json.loads(lines[lineno])
        obj[field] = value
        lines[lineno] = json.dumps(obj)
        transcripts.write_text("\n".join(lines) + "\n")
        assert run("classify", transcripts, "-o", tmp_path / "c") == 2
        assert f"line {lineno + 1}: {field} must be" in capsys.readouterr().err

    def test_classify_stops_on_a_transcript_that_does_not_replay(self, tmp_path, capsys):
        out = tmp_path / "one"
        run("tournament", "--p0", "random", "--p1", "random", "--games", 1, "--transcripts", "-o", out)
        path = out / "transcripts.jsonl"
        lines = path.read_text().splitlines()
        ply = json.loads(lines[1])
        assert ply["type"] == "ply" and ply["ply"] == 1
        ply["action"] = 10
        lines[1] = json.dumps(ply)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("classify", path, "-o", tmp_path / "c") == 1
        captured = capsys.readouterr()
        assert "game 0 ply 1: action code 10 out of range for a row of 5" in captured.err
        assert "histogram" not in captured.out
        assert not (tmp_path / "c").exists()

    def test_classify_prints_a_histogram(self, transcripts, tmp_path, capsys):
        out = tmp_path / "c"
        assert run("classify", transcripts, "-o", out) == 0
        stdout = capsys.readouterr().out
        assert "failure histogram over 6 games:" in stdout
        for tag in ("sum_blindness", "row_miscount", "myopia", "format"):
            assert tag in stdout
        assert (out / "failures.txt").exists()


def test_benchmark_writes_report_and_stats(tmp_path, capsys):
    train_out = tmp_path / "train"
    assert run("train", "--episodes", 800, "--seed", 6, "-o", train_out) == 0
    capsys.readouterr()
    out = tmp_path / "bench"
    code = run(
        "benchmark",
        "--q-shrinker", train_out / "q_shrinker.txt",
        "--q-amplifier", train_out / "q_amplifier.txt",
        "--games", 10, "--seed", 2, "-o", out,
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "Heuristic vs. Random" in stdout
    report = (out / "report.txt").read_text()
    assert "RL vs. Random" in report
    stats = (out / "stats.csv").read_text().splitlines()
    assert stats[0] == STATS_CSV_HEADER
    assert len(stats) == 9


class TestPlay:
    def test_interactive_game_with_reprompt(self, monkeypatch, capsys):
        # two bad replies, then a real one, repeated until the game ends;
        # the scripted human just drains cell 0 forever
        replies = iter(["gibberish", "DRAIN 99"] + ["DRAIN 0"] * 40)
        monkeypatch.setattr("builtins.input", lambda prompt="": next(replies))
        code = run("play", "--as", "shrinker", "--opponent", "heuristic", "--seed", 1)
        assert code == 0
        stdout = capsys.readouterr().out
        assert "invalid reply (format)" in stdout
        assert "invalid reply (out_of_range)" in stdout
        assert "wins" in stdout

    def test_eof_abandons_the_game(self, monkeypatch, capsys):
        def no_input(prompt=""):
            raise EOFError

        monkeypatch.setattr("builtins.input", no_input)
        assert run("play", "--as", "shrinker", "--opponent", "random", "--seed", 0) == 2
        assert "abandoned" in capsys.readouterr().out
