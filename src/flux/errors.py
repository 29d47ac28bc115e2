"""Shared exception types, and the text reader that raises them for undecodable files."""

from collections.abc import Iterator


class StateError(RuntimeError):
    """An operation was asked of a state that cannot support it (e.g. moving in a finished game)."""


class FormatError(ValueError):
    """A persisted artifact (table file, transcript) is malformed; message carries the line number."""


class ConfigError(ValueError):
    """Bad or missing configuration: unknown agent id, absent table file, unset endpoint, ..."""


class TransportError(RuntimeError):
    """A chat backend failed to produce a reply (network error, bad payload, timeout)."""


def text_lines(path: str, encoding: str, error: type[ValueError]) -> Iterator[str]:
    """The lines of a text file; a byte that does not decode raises ``error`` naming the path."""
    with open(path, "r", encoding=encoding) as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: byte {exc.object[exc.start]:#04x} is not {encoding} text") from exc
