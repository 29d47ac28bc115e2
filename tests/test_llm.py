import ast
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

import flux
from flux.cli import main
from flux.engine import Action, GameState, Op, Role, initial_state
from flux.errors import ConfigError, TransportError
from flux.llm import (
    API_KEY_ENV,
    ENDPOINT_ENV,
    INSTRUCTION,
    MODEL_ENV,
    RULES_TEXT,
    HttpChatBackend,
    LlmAgent,
    ScriptedBackend,
    http_backend_from_env,
    llm_agent_step,
    parse_reply,
    render_observation,
)
from flux.qlearn import save_qtable
from flux.solver import reachable_states

from conftest import load_rows


class TestRendering:
    def test_board_block(self):
        assert render_observation(initial_state(), Role.SHRINKER, include_rules=False) == (
            "You are playing as the Shrinker (Player 0).\n\n"
            "index | value\n"
            "0 | 2\n"
            "1 | 1\n"
            "2 | 3\n"
            "3 | 1\n"
            "4 | 2\n"
            "sum = 9\n"
            "move = 1 of 15\n\n" + INSTRUCTION
        )

    def test_move_counter_and_sum_track_the_state(self):
        text = render_observation(GameState((4, 1, 3, 1, 2), 1), Role.AMPLIFIER)
        assert "\nsum = 11\n" in text
        assert "\nmove = 2 of 15\n" in text
        assert "\n\nYou are playing as the Amplifier (Player 1).\n\n" in text

    def test_rules_only_on_request(self):
        with_rules = render_observation(initial_state(), Role.SHRINKER)
        bare = render_observation(initial_state(), Role.SHRINKER, include_rules=False)
        assert with_rules == RULES_TEXT + "\n\n" + bare
        assert "Flux is" not in bare
        for text in (with_rules, bare):
            assert text.endswith(INSTRUCTION)
            assert "You are playing as the Shrinker (Player 0)." in text

    def test_every_prompt_reads_back_to_its_state_and_role(self):
        # a chat stand-in that reads only the prompt can recover the game from it: the
        # "index | value" rows give the cells, "sum = " the total, "move = m of 15" the
        # move count and the banner the role
        live = reachable_states().ongoing
        assert len(live) == 8410
        for state in live:
            for role in Role:
                rules, banner, board, instruction = render_observation(state, role).split("\n\n")
                assert (rules, instruction) == (RULES_TEXT, INSTRUCTION)
                name, seat = re.fullmatch(r"You are playing as the (\w+) \(Player (\d)\)\.", banner).groups()
                header, *rows, total, move = board.split("\n")
                assert header == "index | value"
                pairs = [tuple(map(int, re.fullmatch(r"(\d+) \| (\d+)", row).groups())) for row in rows]
                assert [i for i, _ in pairs] == list(range(len(pairs)))
                cells = tuple(v for _, v in pairs)
                assert int(re.fullmatch(r"sum = (\d+)", total).group(1)) == sum(cells)
                moves = int(re.fullmatch(r"move = (\d+) of 15", move).group(1)) - 1
                assert (GameState(cells, moves), Role(name.lower()), int(seat)) == (state, role, role.player_index)

    def test_every_prompt_is_pinned(self):
        # SHA-256 over all 33,640 prompts, each followed by a NUL: every live state, both
        # roles, with the rules then without; taken when render_observation built an object
        # that callers turned into text
        digest = hashlib.sha256()
        for state in reachable_states().ongoing:
            for role in Role:
                for include_rules in (True, False):
                    digest.update(render_observation(state, role, include_rules=include_rules).encode() + b"\0")
        assert digest.hexdigest() == "428087c8f9ddbacfde340ffb32862ff953c0249bad752d0134a0d2f10ee1b502"


class TestParsing:
    def test_plain_reply(self):
        parsed = parse_reply("DRAIN 1", initial_state())
        assert parsed.ok
        assert parsed.action == Action(1, Op.DRAIN)

    def test_case_and_chatter_are_tolerated(self):
        parsed = parse_reply("Sure - I'll drain 4 this turn.", initial_state())
        assert parsed.ok
        assert parsed.action == Action(4, Op.DRAIN)

    def test_newline_between_op_and_index(self):
        parsed = parse_reply("AMPLIFY\n3", initial_state())
        assert parsed.ok
        assert parsed.action == Action(3, Op.AMPLIFY)

    def test_first_command_wins(self):
        parsed = parse_reply("DRAIN 1... no wait, AMPLIFY 2", initial_state())
        assert parsed.action == Action(1, Op.DRAIN)

    def test_index_past_the_row_is_flagged(self):
        parsed = parse_reply("I will AMPLIFY 7 to grow the row", initial_state())
        assert not parsed.ok
        assert parsed.invalid == "out_of_range"

    def test_negative_index_is_flagged(self):
        parsed = parse_reply("drain -1", initial_state())
        assert parsed.invalid == "out_of_range"

    @pytest.mark.parametrize("reply", ["", "I pass", "double the third cell", "AMPLIFY x"])
    def test_unparseable_replies(self, reply):
        parsed = parse_reply(reply, initial_state())
        assert not parsed.ok
        assert parsed.invalid == "format"


def test_scripted_backend_plays_in_order_then_goes_silent():
    backend = ScriptedBackend(["DRAIN 0", "AMPLIFY 1"])
    assert backend.complete([]) == "DRAIN 0"
    assert backend.complete([]) == "AMPLIFY 1"
    assert backend.complete([]) == ""


class TestAgentStep:
    def test_valid_reply_is_applied_verbatim(self):
        conversation = []
        action, note = llm_agent_step(
            ScriptedBackend(["DRAIN 3"]),
            conversation,
            initial_state(),
            Role.SHRINKER,
            random.Random(0),
        )
        assert action == Action(3, Op.DRAIN)
        assert note == {"raw_reply": "DRAIN 3", "parse": "ok", "substituted": False}
        assert conversation[0][0] == "user"
        assert "Flux is" in conversation[0][1]  # rules ride along on the first turn
        assert conversation[1] == ("assistant", "DRAIN 3")

    def test_rules_are_not_repeated(self):
        conversation = []
        backend = ScriptedBackend(["DRAIN 3", "DRAIN 0"])
        llm_agent_step(backend, conversation, initial_state(), Role.SHRINKER, random.Random(0))
        llm_agent_step(
            backend, conversation, GameState((2, 1, 3, 2), 2), Role.SHRINKER, random.Random(0)
        )
        assert len(conversation) == 4
        assert "Flux is" not in conversation[2][1]

    def test_garbage_reply_gets_a_random_legal_substitute(self):
        conversation = []
        action, note = llm_agent_step(
            ScriptedBackend(["I refuse."]),
            conversation,
            initial_state(),
            Role.SHRINKER,
            random.Random(5),
        )
        assert 0 <= action.index < 5
        assert note["parse"] == "format"
        assert note["substituted"] is True
        assert "transport_failure" not in note
        # the transcript shows the move that was actually played
        assert conversation[1] == ("assistant", action.text)

    def test_transport_failure_is_flagged_separately(self):
        class DeadBackend:
            def complete(self, conversation):
                raise TransportError("connection refused")

        action, note = llm_agent_step(
            DeadBackend(), [], initial_state(), Role.SHRINKER, random.Random(1)
        )
        assert note["transport_failure"] is True
        assert note["substituted"] is True
        assert 0 <= action.index < 5


# --- a tiny live endpoint for the HTTP backend -----------------------------


class _Handler(BaseHTTPRequestHandler):
    requests_seen = []
    reply_status = 200
    reply_body = b""

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append((dict(self.headers), body))
        self.send_response(type(self).reply_status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(type(self).reply_body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def chat_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    _Handler.requests_seen = []
    _Handler.reply_status = 200
    _Handler.reply_body = json.dumps(
        {"choices": [{"message": {"content": "DRAIN 0"}}]}
    ).encode()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


class TestHttpBackend:
    def test_request_shape(self, chat_server):
        backend = HttpChatBackend(chat_server, model="test-model", api_key="sk-xyz")
        reply = backend.complete([("user", "hello")])
        assert reply == "DRAIN 0"
        headers, body = _Handler.requests_seen[0]
        assert headers["Authorization"] == "Bearer sk-xyz"
        assert body == {
            "model": "test-model",
            "messages": [{"role": "user", "content": "hello"}],
            "temperature": 0,
        }

    def test_no_key_means_no_auth_header(self, chat_server):
        backend = HttpChatBackend(chat_server, model="m")
        backend.complete([("user", "hi")])
        headers, _ = _Handler.requests_seen[0]
        assert "Authorization" not in headers

    def test_http_error_raises_transport_error(self, chat_server):
        _Handler.reply_status = 500
        backend = HttpChatBackend(chat_server, model="m", retries=0)
        with pytest.raises(TransportError):
            backend.complete([("user", "hi")])

    def test_malformed_body_raises_transport_error(self, chat_server):
        _Handler.reply_body = b'{"unexpected": true}'
        backend = HttpChatBackend(chat_server, model="m", retries=0)
        with pytest.raises(TransportError):
            backend.complete([("user", "hi")])

    def test_unreachable_endpoint_raises_transport_error(self):
        backend = HttpChatBackend("http://127.0.0.1:1/nope", model="m", retries=0, timeout=0.2)
        with pytest.raises(TransportError):
            backend.complete([("user", "hi")])

    @pytest.mark.parametrize("status, sent", [(400, 1), (429, 2), (500, 2)])
    def test_only_rate_limits_and_server_errors_are_retried(self, chat_server, status, sent):
        _Handler.reply_status = status
        backend = HttpChatBackend(chat_server, model="m", retries=1)
        with pytest.raises(TransportError, match=f"HTTP {status}"):
            backend.complete([("user", "hi")])
        assert len(_Handler.requests_seen) == sent


# --- the HTTP stack loads only when an HTTP backend sends a request ---------

HTTP_MODULES = ("requests", "urllib3", "ssl", "http.client")
# offline play also runs serially, so it never needs a thread pool
OFFLINE_UNUSED = HTTP_MODULES + ("concurrent.futures",)
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(flux.__file__)))


def _fresh_python(code: str, *args: str, parse=json.loads) -> list:
    """Run ``code`` in a new interpreter with ``flux`` importable; return its parsed output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return parse(out.stdout)


def test_offline_play_never_loads_the_http_stack(tmp_path):
    table = load_rows(Role.SHRINKER, {"2,1,3,1,2|0": {3: 0.5}})
    save_qtable(table, str(tmp_path / "q.txt"))
    code = f"""
import json, sys
import flux.cli
from flux.qlearn import load_qtable
from flux.solver import default_solved

# solving, training and table files need neither matches nor chat models
default_solved()
load_qtable(sys.argv[1])
lazy = [m for m in ("flux.arena", "flux.llm") if m in sys.modules]

from flux.arena import MatchupSpec, run_matchup
from flux.llm import LlmAgent, ScriptedBackend

spec = MatchupSpec(lambda seed: LlmAgent(ScriptedBackend(["DRAIN 0"] * 8)), "random", games=4)
assert run_matchup(spec).games == 4
print(json.dumps([lazy, [m for m in {OFFLINE_UNUSED!r} if m in sys.modules]]))
"""
    assert _fresh_python(code, str(tmp_path / "q.txt")) == [[], []]


# a set-up (import the CLI, solve the game, load a table) writes no file and
# parses no command line, so it needs none of the modules that writing run.cfg,
# fingerprinting a training config, an exact random-play table or argparse use;
# its record types are not dataclasses, whose module loads inspect
SETUP_UNUSED = ("json", "hashlib", "fractions", "decimal", "datetime", "argparse", "dataclasses", "inspect")


def test_setup_loads_no_module_it_does_not_use(tmp_path):
    table = load_rows(Role.SHRINKER, {"2,1,3,1,2|0": {3: 0.5}})
    save_qtable(table, str(tmp_path / "q.txt"))
    code = f"""
import sys
before = set(sys.modules)
import flux.cli
from flux.qlearn import load_qtable
from flux.solver import default_solved

default_solved()
load_qtable(sys.argv[1])
print(repr([m for m in {SETUP_UNUSED!r} if m in sys.modules and m not in before]))
"""
    assert _fresh_python(code, str(tmp_path / "q.txt"), parse=ast.literal_eval) == []


def test_first_http_request_loads_the_client(chat_server):
    code = """
import json, sys
from flux.llm import HttpChatBackend

before = "requests" in sys.modules
reply = HttpChatBackend(sys.argv[1], model="m", retries=0).complete([("user", "hi")])
print(json.dumps([before, reply, "requests" in sys.modules]))
"""
    assert _fresh_python(code, chat_server) == [False, "DRAIN 0", True]
    assert len(_Handler.requests_seen) == 1


def test_tournament_reports_transport_failures(chat_server, monkeypatch, capsys):
    # every request gets HTTP 400, which is not retried: each model ply is a
    # transport failure, counted from the annotations and printed
    _Handler.reply_status = 400
    monkeypatch.setenv(ENDPOINT_ENV, chat_server)
    monkeypatch.setenv(MODEL_ENV, "m")
    assert main(["tournament", "--p0", "llm:http", "--p1", "random", "--games", "2"]) == 0
    sent = len(_Handler.requests_seen)
    out = capsys.readouterr().out
    assert sent > 0
    assert f"llm plies {sent}, substituted {sent} (100.0%)" in out
    assert f"transport failures {sent}" in out


class TestEnvConfig:
    def test_missing_endpoint_is_a_config_error(self, monkeypatch):
        monkeypatch.delenv(ENDPOINT_ENV, raising=False)
        monkeypatch.delenv(MODEL_ENV, raising=False)
        with pytest.raises(ConfigError):
            http_backend_from_env()

    def test_missing_model_is_a_config_error(self, monkeypatch):
        monkeypatch.setenv(ENDPOINT_ENV, "http://127.0.0.1:1/x")
        monkeypatch.delenv(MODEL_ENV, raising=False)
        with pytest.raises(ConfigError):
            http_backend_from_env()

    def test_full_env_builds_a_backend(self, monkeypatch):
        monkeypatch.setenv(ENDPOINT_ENV, "http://127.0.0.1:1/x")
        monkeypatch.setenv(MODEL_ENV, "local-model")
        monkeypatch.setenv(API_KEY_ENV, "k")
        backend = http_backend_from_env()
        assert backend.model == "local-model"
        assert backend.api_key == "k"


def test_llm_agent_keeps_per_game_state():
    agent = LlmAgent(ScriptedBackend(["DRAIN 1", "nonsense"]), name="scripted")
    rng = random.Random(3)
    first = agent.choose(initial_state(), Role.SHRINKER, rng)
    assert first == Action(1, Op.DRAIN)
    assert agent.last_annotation["parse"] == "ok"
    second = agent.choose(GameState((2, 3, 1, 2), 2), Role.SHRINKER, rng)
    assert agent.last_annotation["substituted"] is True
    assert 0 <= second.index < 4
