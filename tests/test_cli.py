"""End-to-end command-line tests; everything goes through main(argv)."""

import ast
import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

import flux
from flux.cli import build_parser, main
from flux.qlearn import CURVE_HEADER, TrainConfig, load_qtable
from flux.arena import STATS_CSV_HEADER, read_transcripts
from flux.engine import Role


FIXTURE = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / "q_amplifier.txt"


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

    def test_flags_default_to_the_config(self):
        # the nine training flags take their defaults and types from TrainConfig
        args = vars(build_parser().parse_args(["train", "-o", "out"]))
        defaults = TrainConfig()._asdict()
        shared = args.keys() & defaults.keys()
        assert len(shared) == 9
        assert {k: (args[k], type(args[k])) for k in shared} == {k: (defaults[k], type(defaults[k])) for k in shared}
        assert TrainConfig(**{k: args[k] for k in shared}) == TrainConfig()

    def test_flags_and_defaults_are_pinned(self):
        # the training flags as the command line spells them, each default with its type
        flags = {"--episodes": 30000, "--seed": 0, "--alpha": 0.2, "--gamma": 0.92, "--eps-start": 1.0,
                 "--eps-min": 0.05, "--eps-decay": 0.9997, "--curriculum": "roundrobin", "--log-every": 1}
        parser = build_parser()
        args = vars(parser.parse_args(["train", "-o", "out"]))
        assert {flag: args[flag[2:].replace("-", "_")] for flag in flags} == flags
        assert [type(args[flag[2:].replace("-", "_")]) for flag in flags] == list(map(type, flags.values()))
        # each flag reads its value back, as the default's type
        argv = ["train", "-o", "out", *(part for flag, value in flags.items() for part in (flag, str(value)))]
        assert vars(parser.parse_args(argv)) == args


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

    @pytest.mark.parametrize("label", [None, "café"], ids=["default-with-comma", "non-ascii"])
    def test_stats_csv_keeps_any_label_in_one_field(self, tmp_path, capsys, label):
        # a comma in the default label used to split it over two fields; a non-ASCII one raised after the games
        script = tmp_path / "a,b.txt"
        script.write_text("DRAIN 1\nAMPLIFY 0\n")
        p0 = f"llm:scripted={script}"
        argv = ("tournament", "--p0", p0, "--p1", "random", "--games", 2, "-o", tmp_path / "t")
        assert run(*argv, *(("--label", label) if label else ())) == 0
        with open(tmp_path / "t" / "stats.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [9, 9, 9]
        assert [row[0] for row in rows[1:]] == [label or f"{p0} vs random"] * 2
        # run.cfg gives the label every row starts with, the default one too
        assert json.loads((tmp_path / "t" / "run.cfg").read_text(encoding="utf-8"))["label"] == rows[1][0]

    def test_outcomes_print_in_reason_order(self, capsys):
        # the first game ends by sum_exceeded_20, but the line lists reasons sorted
        assert run("tournament", "--p0", "random", "--p1", "random", "--games", 20, "--seed", 0) == 0
        outcomes = (
            "  outcomes: {'single_cell': 4, 'sum_exceeded_20': 9, "
            "'tiebreak_at_least_3': 4, 'tiebreak_fewer_than_3': 3}"
        )
        assert outcomes in capsys.readouterr().out.splitlines()

    def test_a_seeded_tournament_prints_these_lines(self, capsys):
        # one line per seat, Shrinker first, each with its wins, rate and Wilson interval
        assert run("tournament", "--p0", "heuristic", "--p1", "random", "--games", 20, "--seed", 3) == 0
        assert capsys.readouterr().out == (
            "heuristic vs random: 20 games\n"
            "  shrinker wins 19 (95.0%, 95% CI [76.4, 99.1])\n"
            "  amplifier wins 1 (5.0%, 95% CI [0.9, 23.6])\n"
            "  avg moves 8.90\n"
            "  outcomes: {'single_cell': 19, 'sum_exceeded_20': 1}\n"
        )

    def test_transcripts_flag_requires_an_output_dir(self, capsys):
        assert run("tournament", "--p0", "random", "--p1", "random", "--transcripts") == 2
        assert capsys.readouterr().err != ""

    def test_unknown_agent_exits_2(self, capsys):
        assert run("tournament", "--p0", "zergrush", "--p1", "random") == 2
        assert "zergrush" in capsys.readouterr().err

    def test_missing_table_exits_2(self, tmp_path, capsys):
        assert run("tournament", "--p0", f"rl:{tmp_path}/none.txt", "--p1", "random") == 2
        assert "not found" in capsys.readouterr().err

    def test_table_in_the_wrong_seat_exits_2(self, tmp_path, capsys):
        # the Amplifier's table as the Shrinker would fall back to random on every ply
        assert run("tournament", "--p0", f"rl:{FIXTURE}", "--p1", "random", "--games", 200, "--transcripts",
                   "-o", tmp_path) == 2
        out, err = capsys.readouterr()
        assert "#role=amplifier and cannot play the shrinker" in err
        assert out == "" and list(tmp_path.iterdir()) == []


def test_only_write_out_writes_run_cfg():
    # every command's artifacts go through _write_out, so whatever a run writes beside them
    # (its run.cfg, and any other per-run record) has one place to be written from
    found = []
    for path in sorted(Path(flux.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    scopes.setdefault(inner, node.name)  # the outermost function holding the name
        for node in ast.walk(tree):
            if "_write_run_cfg" in (getattr(node, "id", None), getattr(node, "attr", None)):
                found.append((path.name, scopes.get(node)))
    assert found == [("cli.py", "_write_out")]


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

    @pytest.mark.parametrize("command", ["replay", "classify"])
    @pytest.mark.parametrize("kind", ["ply", "end"])
    def test_a_status_no_rule_produces_exits_2(self, transcripts, capsys, command, kind):
        # a shrinker win by sum_exceeded_20 used to read cleanly and fail replay as a mismatch, exit 1
        lines = transcripts.read_text().splitlines()
        end = next(i for i, line in enumerate(lines) if json.loads(line).get("reason") == "sum_exceeded_20")
        lineno = end if kind == "end" else end - 1
        obj = json.loads(lines[lineno])
        if kind == "end":
            obj["winner"] = "shrinker"
        else:
            assert obj["status"] == "amplifier:sum_exceeded_20"
            obj["status"] = "shrinker:sum_exceeded_20"
        lines[lineno] = json.dumps(obj)
        transcripts.write_text("\n".join(lines) + "\n")
        assert run(command, transcripts) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{transcripts}: line {lineno + 1}: 'shrinker:sum_exceeded_20' is not a valid TerminalStatus" in err

    @pytest.mark.parametrize("code", [10, -1])  # -1 reads, but classify_failure would raise a bare ValueError on it
    def test_classify_stops_on_a_transcript_that_does_not_replay(self, tmp_path, capsys, code):
        out = tmp_path / "one"
        run("tournament", "--p0", "random", "--p1", "random", "--games", 1, "--transcripts", "-o", out)
        path = out / "transcripts.jsonl"
        lines = path.read_text().splitlines()
        ply = json.loads(lines[1])
        assert ply["type"] == "ply" and ply["ply"] == 1
        ply["action"] = code
        lines[1] = json.dumps(ply)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("classify", path, "-o", tmp_path / "c") == 1
        captured = capsys.readouterr()
        assert f"game 0 ply 1: action code {code} out of range for a row of 5" in captured.err
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

    def test_classify_writes_a_run_cfg(self, transcripts, tmp_path, capsys):
        # classify -o used to write failures.txt alone, unlike every other command that writes artifacts
        out = tmp_path / "c"
        assert run("classify", transcripts, "-o", out) == 0
        assert sorted(path.name for path in out.iterdir()) == ["failures.txt", "run.cfg"]
        cfg = json.loads((out / "run.cfg").read_text())
        assert cfg.keys() == {"command", "first_mover", "created", "transcript"}
        assert (cfg["command"], cfg["first_mover"], cfg["transcript"]) == ("classify", "shrinker", str(transcripts))
        assert capsys.readouterr().out.endswith(f"wrote {out / 'failures.txt'}\n")


@pytest.mark.parametrize(
    "argv, encoding",
    [
        (("replay", "{bad}"), "utf-8"),
        (("classify", "{bad}"), "utf-8"),
        (("benchmark", "--q-shrinker", "{bad}", "--q-amplifier", "{bad}", "--games", 1), "ascii"),
        (("tournament", "--p0", "rl:{bad}", "--p1", "random", "--games", 1), "ascii"),
        (("tournament", "--p0", "llm:scripted={bad}", "--p1", "random", "--games", 1), "utf-8"),
    ],
    ids=["replay", "classify", "benchmark", "tournament-rl", "tournament-scripted"],
)
def test_undecodable_files_exit_2(tmp_path, capsys, argv, encoding):
    # a byte that does not decode used to end in a UnicodeDecodeError traceback and exit 1
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"#role=shrinker\n\xff\n")
    assert run(*(str(a).format(bad=bad) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{bad}: byte 0xff is not {encoding} text" in err


@pytest.mark.parametrize(
    "argv",
    [("replay", "{dir}"), ("solve", "-o", "{file}"), ("tournament", "--p0", "rl:{dir}", "--p1", "random")],
    ids=["replay-a-directory", "solve-into-a-file", "tournament-rl-a-directory"],
)
def test_file_system_errors_exit_2(tmp_path, capsys, argv):
    # each used to end in an IsADirectoryError or FileExistsError traceback and exit 1, a replay mismatch's code
    file = tmp_path / "taken.txt"
    file.write_text("")
    assert run(*(a.format(dir=tmp_path, file=file) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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

    def test_opponent_table_in_the_wrong_seat_exits_2(self, monkeypatch, capsys):
        # playing as the Amplifier puts the opponent's table in the Shrinker's seat
        monkeypatch.setattr("builtins.input", lambda prompt="": "DRAIN 0")
        assert run("play", "--as", "amplifier", "--opponent", f"rl:{FIXTURE}") == 2
        out, err = capsys.readouterr()
        assert "cannot play the shrinker" in err and out == ""
        assert run("play", "--as", "shrinker", "--opponent", f"rl:{FIXTURE}") == 0


# Small runs of the five commands that write artifacts, in order: benchmark reads
# train's tables and classify reads tournament's transcripts.  Each pin is the
# SHA-256 of the run's stdout and of every file it wrote, with the temporary
# directory shown as <tmp> and run.cfg without its "created" line; taken before
# the commands shared one writer, so a change to any byte they print or write shows here.
PINNED_RUNS = {
    "train": ("train", "--episodes", 300, "--seed", 5, "-o", "{tmp}/train"),
    "solve": ("solve", "--rational", "-o", "{tmp}/solve"),
    "tournament": ("tournament", "--p0", "random", "--p1", "heuristic", "--games", 20, "--seed", 4, "--transcripts",
                   "-o", "{tmp}/tournament"),
    "benchmark": ("benchmark", "--q-shrinker", "{tmp}/train/q_shrinker.txt", "--q-amplifier",
                  "{tmp}/train/q_amplifier.txt", "--games", 10, "--seed", 2, "-o", "{tmp}/benchmark"),
    "classify": ("classify", "{tmp}/tournament/transcripts.jsonl", "-o", "{tmp}/classify"),
}
PINNED_BYTES = {
    "train": {
        "stdout": "4d55d9c907b7e89e5b35ddb1ae1866ee3d6afa3e635ce4e0bb7e335e81cf235a",
        "q_amplifier.txt": "592e61c40684a9b4efc475a78ab6c0d852d68c8eb61c339729f044302c065a57",
        "q_shrinker.txt": "6dd5c25beb371cbe787fb12109c414daf9b60c86ab97d421a6196ff9c7c2596c",
        "run.cfg": "14e5131a36476d9d809207fc1d1cd17cdce501f45273f3b6b4547c83f5029b27",
        "training_curve.csv": "2dcb4afd892341a462b503ecbb5bcc1ad99d72e5045b2c9148f6db6029d5e240",
    },
    "solve": {
        "stdout": "06c8fa02c156b8bd6456fb830cb9c50c140fb671467f0649f519f68cd5c0f250",
        "run.cfg": "e67b4406610a2c2e9a3a9c3ebf1e91bc682e53e4786397c5adb94b97ddf2c5b7",
        "solved.txt": "c0f2cea6b3ecc7969be53ce7ee2e4a94ba4bcbcd80dca66ed4baed857ed9cc78",
    },
    "tournament": {
        "stdout": "96854f5ec7199834f97fe4ce66e375b32415a2b3a90d93eba5496f06d081791f",
        "run.cfg": "5b4cb9d61a71ae9e7e4c70bcdee823db3ec4bb094eaef30d84300f18256e14d5",  # retaken when it gained "label"
        "stats.csv": "c87162813a4a6d8ebc157da18f5c490c502bde0f4eee06247d6b7b73cb3638eb",
        "transcripts.jsonl": "b82c81858a33c5b838e435cc43e0a99c7a288a299a982f3b5b681553f936587b",
    },
    "benchmark": {
        "stdout": "95b3155c471afae20571f13565a6dc90b6c20b2c392a8207d5c35369e42ac02a",
        "report.txt": "ed1c1e3e714cdd0dda75305324057074abb0cc9d3cdfa3559ea961a19729f8ec",
        "run.cfg": "6da4ecd0841cdad57d958d0f861dd75efba7769e7c1b3117d63a49dde92b81f0",
        "stats.csv": "3d4652cda351732a8fd0be85a81d012d74cd97eaa6874b9d44fbadce8c94e392",
    },
    "classify": {
        "stdout": "a8a994749e4eea78e2105fe8efa0daad4b6e4bf045466501c88aaf78ecb92b4d",
        "failures.txt": "f83a219fdbf051edeff9c1caebee499fb822823b729d50efbff84b65c69db066",
        "run.cfg": "468fb6d9669500ad336d712f46d940b872360d23c2840bde264b448ec845a244",  # the one file added since
    },
}


def test_artifact_commands_print_and_write_pinned_bytes(tmp_path, capsys):
    def digest(text: str) -> str:
        return hashlib.sha256(text.replace(str(tmp_path), "<tmp>").encode()).hexdigest()

    seen = {}
    for command, argv in PINNED_RUNS.items():
        assert run(*(str(a).format(tmp=tmp_path) for a in argv)) == 0
        files = {"stdout": digest(capsys.readouterr().out)}
        for path in sorted((tmp_path / command).iterdir()):
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            files[path.name] = digest("".join(line for line in lines if not line.startswith('  "created": ')))
        seen[command] = files
    assert seen == PINNED_BYTES
