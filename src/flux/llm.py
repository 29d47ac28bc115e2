"""Chat-model play harness: board rendering, reply parsing, and backends.

A game against a chat model is a conversation.  The first user message
carries the full rules; every user message shows the board, the running sum,
the move number, and the reply format.  ``render_observation`` returns that
message as plain text, all that a model or a stand-in for one reads.
Whatever comes back is parsed generously (first AMPLIFY/DRAIN token with an
index, any case); anything that does not resolve to a legal move is replaced
by a uniformly random legal move so a game always finishes, and the
substitution is recorded.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from .agents import AgentPolicy, RandomAgent, RandomSource
from .engine import Action, GameState, MAX_PLIES, Op, RULES_TEXT, Role
from .errors import ConfigError, TransportError

INSTRUCTION = "Reply with exactly: AMPLIFY <index> or DRAIN <index>"

ENDPOINT_ENV = "FLUX_LLM_ENDPOINT"
API_KEY_ENV = "FLUX_LLM_API_KEY"
MODEL_ENV = "FLUX_LLM_MODEL"

# First AMPLIFY/DRAIN word followed (after optional punctuation) by an integer.
_REPLY_RE = re.compile(r"\b(amplify|drain)\b\W*?(-?\d+)", re.IGNORECASE | re.DOTALL)

INVALID_FORMAT = "format"
INVALID_OUT_OF_RANGE = "out_of_range"


def render_observation(state: GameState, role: Role, include_rules: bool = True) -> str:
    """The prompt for ``role`` at ``state``: the rules if asked, the role banner, the board and the reply format."""
    rows = ["index | value"]
    for i, v in enumerate(state.cells):
        rows.append(f"{i} | {v}")
    rows.append(f"sum = {state.total}")
    rows.append(f"move = {state.moves_played + 1} of {MAX_PLIES}")
    banner = f"You are playing as the {role.value.capitalize()} (Player {role.player_index})."
    head = [RULES_TEXT] if include_rules else []
    return "\n\n".join(head + [banner, "\n".join(rows), INSTRUCTION])


@dataclass(frozen=True)
class ParsedReply:
    action: Action | None
    invalid: str | None = None  # INVALID_FORMAT or INVALID_OUT_OF_RANGE

    @property
    def ok(self) -> bool:
        return self.action is not None


def parse_reply(text: str, state: GameState) -> ParsedReply:
    m = _REPLY_RE.search(text or "")
    if m is None:
        return ParsedReply(None, INVALID_FORMAT)
    op = Op.AMPLIFY if m.group(1).lower() == "amplify" else Op.DRAIN
    index = int(m.group(2))
    if not 0 <= index < len(state.cells):
        return ParsedReply(None, INVALID_OUT_OF_RANGE)
    return ParsedReply(Action(index, op))


Conversation = list[tuple[str, str]]  # (speaker, text) with chat-style speakers


def llm_agent_step(
    backend,
    conversation: Conversation,
    state: GameState,
    role: Role,
    rng: RandomSource,
) -> tuple[Action, dict]:
    """One turn: prompt, parse, substitute if needed, extend the conversation.

    Returns the applied action and an annotation describing what the model
    actually said.  The conversation records the applied move, substituted or
    not, so the transcript the model sees matches the game that was played.
    """
    conversation.append(("user", render_observation(state, role, include_rules=not conversation)))
    transport_failure = False
    try:
        raw = backend.complete(conversation)
    except TransportError:
        raw = ""
        transport_failure = True
    parsed = parse_reply(raw, state)
    action = parsed.action if parsed.ok else RandomAgent().choose(state, role, rng)  # the uniform seat's one draw
    conversation.append(("assistant", action.text))
    annotation = {
        "raw_reply": raw,
        "parse": "ok" if parsed.ok else parsed.invalid,
        "substituted": not parsed.ok,
    }
    if transport_failure:
        annotation["transport_failure"] = True
    return action, annotation


class ScriptedBackend:
    """Replays a fixed list of replies; once exhausted it returns empty strings."""

    name = "scripted"

    def __init__(self, replies: list[str]) -> None:
        self.replies = list(replies)
        self._next = 0

    def complete(self, conversation: Conversation) -> str:
        if self._next >= len(self.replies):
            return ""
        reply = self.replies[self._next]
        self._next += 1
        return reply


class HttpChatBackend:
    """Chat-completion endpoint speaking the usual {model, messages, temperature} JSON."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str = "",
        timeout: float = 60.0,
        retries: int = 1,
    ) -> None:
        if retries < 0:  # complete makes retries + 1 attempts, and would end with no error to raise
            raise ConfigError(f"retries must be >= 0, not {retries}")
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.retries = retries
        self.name = model

    def _payload(self, conversation: Conversation) -> dict:
        return {
            "model": self.model,
            "messages": [{"role": s, "content": t} for s, t in conversation],
            "temperature": 0,
        }

    def complete(self, conversation: Conversation) -> str:
        # Loaded here so that a process with no HTTP agent never pays for the
        # HTTP stack (requests, urllib3, ssl, http.client).
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        for _ in range(self.retries + 1):
            try:
                resp = requests.post(
                    self.endpoint,
                    json=self._payload(conversation),
                    headers=headers,
                    timeout=self.timeout,
                )
                if resp.status_code // 100 != 2:
                    last_error = TransportError(
                        f"endpoint returned HTTP {resp.status_code}: {resp.text[:200]}"
                    )
                    # Rate limiting and server faults may clear on a retry;
                    # any other client error would only be sent again.
                    if resp.status_code == 429 or resp.status_code >= 500:
                        continue
                    break
                body = resp.json()
                content = body["choices"][0]["message"]["content"]
                if not isinstance(content, str):
                    raise TransportError("reply content is not text")
                return content
            except TransportError as exc:
                last_error = exc
            except (requests.RequestException, ValueError, KeyError, IndexError, TypeError) as exc:
                last_error = TransportError(f"chat request failed: {exc}")
        raise last_error


def http_backend_from_env(environ: dict | None = None) -> HttpChatBackend:
    env = os.environ if environ is None else environ
    endpoint = env.get(ENDPOINT_ENV, "")
    model = env.get(MODEL_ENV, "")
    if not endpoint:
        raise ConfigError(f"{ENDPOINT_ENV} is not set")
    if not model:
        raise ConfigError(f"{MODEL_ENV} is not set")
    return HttpChatBackend(endpoint=endpoint, model=model, api_key=env.get(API_KEY_ENV, ""))


class LlmAgent(AgentPolicy):
    """Wraps a backend in the per-game protocol: one conversation per game.

    Each move's annotation is the only record of what the model said; the
    arena counts plies, substitutions and transport failures from it.
    """

    def __init__(self, backend, name: str | None = None) -> None:
        super().__init__()
        self.backend = backend
        self.name = name or f"llm:{getattr(backend, 'name', 'backend')}"
        self.conversation: Conversation = []

    def choose(self, state, role, rng):
        action, annotation = llm_agent_step(self.backend, self.conversation, state, role, rng)
        self.last_annotation = annotation
        return action
