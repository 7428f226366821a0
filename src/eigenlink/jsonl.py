"""The JSONL format: one JSON value per line of a UTF-8 text file.

Files are split on ``\\n``, so a line ends in ``\\n`` or ``\\r\\n`` and a
lone ``\\r`` is not a line break; blank lines are skipped. A bad byte, bad
JSON, a ``\\u`` escape of a lone surrogate (text that UTF-8 cannot hold),
an object that gives a key twice, at any depth, or nesting past the
recursion limit is a FormatError naming the line.
"""

from __future__ import annotations

import json
from typing import Any, BinaryIO, Callable, Iterable, Iterator

from .errors import FormatError

# Bytes read and decoded at a time by ``rows``.
_BLOCK_BYTES = 1 << 16


class RepeatedKeyError(FormatError):
    """A JSON object gives ``key`` twice."""

    def __init__(self, key: str):
        super().__init__(f"key {key!r} is given twice")
        self.key = key


def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """The ``object_pairs_hook`` that raises RepeatedKeyError for a key given twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise RepeatedKeyError(key)
            seen.add(key)
    return obj


_scan = json.JSONDecoder(object_pairs_hook=unique_keys).scan_once


def decode(raw: bytes, lineno: int) -> str:
    """``raw`` as UTF-8 text; here ``lineno`` is always the file line ``raw`` starts on."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = lineno + raw.count(b"\n", 0, exc.start)
        raise FormatError(f"line {line}: not valid UTF-8") from exc


def loads(text: str, lineno: int, pairs_hook: Callable | None = None) -> Any:
    try:
        value = json.loads(text, object_pairs_hook=pairs_hook)
        if "\\u" in text:  # only an escape can make text that UTF-8 cannot hold
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        return value
    except json.JSONDecodeError as exc:
        raise FormatError(f"line {lineno + exc.lineno - 1}: invalid JSON ({exc.msg})") from exc
    except RecursionError as exc:
        raise FormatError(f"line {lineno}: JSON nested too deeply") from exc
    except UnicodeEncodeError as exc:
        raise FormatError(f"line {lineno}: escape of a lone surrogate") from exc
    except ValueError as exc:  # an integer past Python's digit limit
        raise FormatError(f"line {lineno}: number too long") from exc


def parse(raw: bytes, lineno: int = 1, pairs_hook: Callable | None = None) -> Any:
    """The JSON value of ``raw``, a single line or a whole document; ``pairs_hook``
    is ``json.loads``'s ``object_pairs_hook``."""
    return loads(decode(raw, lineno), lineno, pairs_hook)


def lines(fh: BinaryIO) -> Iterator[tuple[int, str]]:
    """(line number, text with its line ending) of each non-blank line of binary ``fh``."""
    for lineno, raw in enumerate(fh, 1):
        text = decode(raw, lineno)
        if not text.isspace():
            yield lineno, text


def _value(text: str, lineno: int) -> Any:
    """``loads(text, lineno, unique_keys)``, by the C scanner alone for one plain value.

    ``text`` has no surrounding whitespace, so a value that ends where
    ``text`` does is what ``json.loads`` returns. Anything else, and any
    ``\\u`` escape, goes through ``loads`` for its checks and messages.
    """
    try:
        if "\\u" not in text:
            try:
                value, end = _scan(text, 0)
                if end == len(text):
                    return value
            except (StopIteration, ValueError, RecursionError):
                pass
        return loads(text, lineno, unique_keys)
    except RepeatedKeyError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None


def rows(fh: BinaryIO) -> Iterator[tuple[int, Any]]:
    """(line number, JSON value) of each non-blank line of binary ``fh``.

    The file is read and decoded in blocks of about 64 KiB; a block
    that is not UTF-8 is decoded again line by line, so that the rows
    before its bad line still come first.
    """
    start = 1
    while block := fh.readlines(_BLOCK_BYTES):
        try:
            texts: Iterable[str] = b"".join(block).decode("utf-8").split("\n")
        except UnicodeDecodeError:
            texts = (decode(raw, lineno) for lineno, raw in enumerate(block, start))
        for lineno, text in enumerate(texts, start):
            if text and not text.isspace():
                yield lineno, _value(text.strip(), lineno)
        start += len(block)


def write_rows(path: str, values: Iterable[Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(value, ensure_ascii=False) + "\n" for value in values)
