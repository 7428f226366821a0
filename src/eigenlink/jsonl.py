"""The JSONL format: one JSON value per line of a UTF-8 text file.

Files are split on ``\\n``, so a line ends in ``\\n`` or ``\\r\\n`` and a
lone ``\\r`` is not a line break; blank lines are skipped. A bad byte, bad
JSON, a ``\\u`` escape of a lone surrogate (text that UTF-8 cannot hold),
an object that gives a key twice, at any depth, or nesting past the
recursion limit is a FormatError naming the line.

The catalog, the descriptions and the dataset each declare their record
once, as a ``Table`` of ``Field``s, and are read by ``records``.
"""

from __future__ import annotations

import json
import re
from typing import Any, BinaryIO, Callable, Iterable, Iterator, NamedTuple

from .errors import FormatError
from .rowids import RowIds

# Bytes read and decoded at a time by ``blocks``.
_BLOCK_BYTES = 1 << 16
# Only a ``\u`` escape of a surrogate (U+D800 to U+DFFF) can make text
# that UTF-8 cannot hold; an escaped backslash before ``u`` is a false hit.
_surrogate_escape = re.compile(r"\\u[dD][89a-fA-F]").search


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
        if _surrogate_escape(text):
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
    """``loads(text, lineno, unique_keys)``, with a repeated key's error naming the line."""
    try:
        return loads(text, lineno, unique_keys)
    except RepeatedKeyError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None


def blocks(fh: BinaryIO) -> Iterator[tuple[int, Iterable[str]]]:
    """(first line number, texts of its lines) of each block of binary ``fh``.

    The file is read and decoded in blocks of about 64 KiB, split on
    ``\\n``; a text may keep its ``\\r`` or be blank. A block that is not
    UTF-8 is decoded again line by line, so that the lines before its bad
    line still come first.
    """
    start = 1
    while block := fh.readlines(_BLOCK_BYTES):
        try:
            texts: Iterable[str] = b"".join(block).decode("utf-8").split("\n")
        except UnicodeDecodeError:
            texts = (decode(raw, lineno) for lineno, raw in enumerate(block, start))
        yield start, texts
        start += len(block)


REQUIRED: Any = object()  # the default of a field that every record gives
STRINGS = "''.join(v) is not None"  # a check that v holds only strings: join raises TypeError
_MISSING = object()


class Field(NamedTuple):
    """One field of a record. A given value is valid when its type is ``type`` exactly (a
    JSON ``true`` is a bool, not an int) and then each of ``checks`` holds of it: a Python
    expression in ``v``, or ``(expression, message)``. One that is false or raises TypeError
    fails with its message, by default ``message``, which is also the error of a value of
    another type and of a missing REQUIRED field. Any other missing field, or a ``null`` one
    whose default is None, takes ``default``, a literal made afresh for each record."""

    name: str
    type: type
    message: str
    default: Any = REQUIRED
    checks: tuple = ()


class Table:
    """A file's record: a JSON object with ``fields``; ``message`` is the error of another value.

    ``check`` is a function of a JSON value that returns the values of the fields, or raises a
    FormatError with the message of the first fault, taking the fields in order. It is
    compiled once, when the table is made, a statement per test: a loop over the fields took
    three times as long (0.07 against 0.024 s on 80,000 catalog objects)."""

    def __init__(self, message: str, fields: tuple[Field, ...]):
        self.message, self.fields = message, fields
        lines = [f"if type(obj) is not dict: raise E({message!r})"]
        namespace = {"E": FormatError, "M": _MISSING}
        for i, field in enumerate(fields):
            namespace[f"T{i}"], at, err = field.type, "", f"raise E({field.message!r})"
            if field.default is REQUIRED:
                lines += [f"try: v = obj[{field.name!r}]", f"except KeyError: {err}"]
            else:
                missing = "v is M or v is None" if field.default is None else "v is M"
                lines += [f"v = obj.get({field.name!r}, M)", f"if {missing}: v = {field.default!r}"]
                lines, at = lines + ["else:"], "    "
            tests = [f"if type(v) is not T{i}: {err}"]
            for check in field.checks:
                test, message = (check, field.message) if isinstance(check, str) else check
                err = f"raise E({message!r})"  # a test that raises TypeError fails too
                tests += ["try:", f"    if not ({test}): {err}", f"except TypeError: {err}"]
            lines += [at + test for test in tests] + [f"v{i} = v"]
        lines.append(f"return ({''.join(f'v{i}, ' for i in range(len(fields)))})")
        exec("def check(obj):\n    " + "\n    ".join(lines), namespace)
        self.check: Callable[[Any], tuple] = namespace["check"]


def records(path: str, table: Table, key: str) -> Iterator[tuple]:
    """The values of ``table``'s fields in each record of the JSONL file at ``path``.

    The file is read in ``blocks``. A line with no ``\\u`` escape of a
    surrogate that is one JSON value, as nearly every line is, is decoded by
    the C scanner alone; any other by ``_value``. Other escapes, which
    ``json.dumps`` writes for every non-ASCII character by default, stay on
    the scanner. Each is checked by ``table.check``, and the
    first error in file order wins. Each value of the string field ``key``
    is given once (``RowIds``); on one line, a field error comes first. A
    consumer that rejects a record throws (``generator.throw``) a FormatError
    into this generator, which names the record's line, after any earlier repeat.
    """
    check, scan, surrogate_escape = table.check, _scan, _surrogate_escape
    k = [field.name for field in table.fields].index(key)

    def line_key(raw: bytes) -> str | None:  # of a valid line; None for a blank one
        # stripped as the lines below are: str.strip() removes more than JSON whitespace
        return json.loads(text)[key] if (text := raw.decode("utf-8").strip()) else None

    with open(path, "rb") as fh, RowIds(path, line_key, key).checked() as ids:
        for start, texts in blocks(fh):
            keys: list[str] = []
            last = 0
            try:
                for lineno, text in enumerate(texts, start):
                    if not (text := text.strip()):
                        continue
                    end = -1
                    # only _value checks what a surrogate escape makes
                    if "\\u" not in text or not surrogate_escape(text):
                        try:
                            obj, end = scan(text, 0)
                        except (StopIteration, ValueError, RecursionError, FormatError):
                            pass
                    if end != len(text):
                        obj = _value(text, lineno)
                    try:
                        values = check(obj)
                        yield values
                    except FormatError as exc:
                        raise FormatError(f"line {lineno}: {exc}") from None
                    keys.append(values[k])
                    last = lineno
            finally:  # before an error, so that a repeat among these lines comes first
                ids.extend(keys, start, last)


def write_rows(path: str, values: Iterable[Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(value, ensure_ascii=False) + "\n" for value in values)
