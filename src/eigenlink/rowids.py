"""The check that each row of a keyed input file has its own identifier.

A set of every identifier would grow with the file's text. Here each
row keeps 8 bytes, its identifier's ``hash()``, plus the first and last
line recorded, and the hashes are sorted once, in place. Equal hashes
are only candidates: the lines from the first to the last recorded are
read again, and the identifiers with a tied hash are compared as
strings in file order, so two distinct identifiers never count as a
repeat.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from .errors import EigenlinkError, IntegrityError


def line_qid(raw: bytes) -> str | None:
    """The ``qid`` of one valid line of a JSONL file keyed by qid; None for a blank line."""
    # stripped as the loaders strip it: str.strip() removes more than JSON whitespace
    text = raw.decode("utf-8").strip()
    return json.loads(text)["qid"] if text else None


class RowIds:
    """The identifiers of the rows accepted so far from the file at ``path``.

    ``key`` gives the identifier of one raw line of the file, or None for
    a line the loader skips, and ``what`` names it in the error, as in
    ``line 9: duplicate qid 'Q1'``. Rows are recorded in file order, and
    every line from the first recorded to the last is either recorded or
    skipped by the loader.
    """

    def __init__(self, path: str, key: Callable[[bytes], str | None], what: str):
        self._path = path
        self._key = key
        self._what = what
        self._hashes = array("q")
        self._first = self._last = 0

    def add(self, identifier: str, lineno: int) -> None:
        """Record a row; call it only once the row is valid."""
        self._hashes.append(hash(identifier))
        self._first = self._first or lineno
        self._last = lineno

    def extend(self, identifiers: list[str], first: int, last: int) -> None:
        """Record valid rows, as ``add`` on each in turn.

        They lie on the lines ``first`` to ``last``, the last row on
        ``last``; each line between is a row or one the loader skips.
        """
        if identifiers:
            self._hashes.extend(map(hash, identifiers))
            self._first = self._first or first
            self._last = last

    def __len__(self) -> int:
        return len(self._hashes)

    def check(self) -> None:
        """Raise IntegrityError naming the first line whose identifier is on an earlier line.

        It sorts the recorded hashes in place, so it is the last call.
        """
        hashes = np.frombuffer(self._hashes, dtype=np.int64)
        hashes.sort()
        tied = set(hashes[1:][hashes[1:] == hashes[:-1]].tolist())
        del hashes  # releases the array's buffer
        if tied:
            self._first_repeat(tied)

    def _first_repeat(self, tied: set[int]) -> None:
        """Raise for the first repeat among the recorded lines whose hash is ``tied``."""
        seen: set[str] = set()
        with open(self._path, "rb") as fh:
            for lineno, raw in enumerate(fh, 1):
                if lineno < self._first:
                    continue
                identifier = self._key(raw)
                if identifier is not None and hash(identifier) in tied:
                    if identifier in seen:
                        raise IntegrityError(
                            f"line {lineno}: duplicate {self._what} {identifier!r}"
                        )
                    seen.add(identifier)
                if lineno == self._last:
                    return
        raise OSError(f"{self._path} changed while it was read")

    @contextmanager
    def checked(self) -> Iterator[RowIds]:
        """Check for repeats when the block ends, or before any error it raises.

        So the first error in file order wins: a repeat among the rows
        accepted before a bad line is reported instead of that line.
        """
        try:
            yield self
        except EigenlinkError:
            self.check()
            raise
        self.check()
