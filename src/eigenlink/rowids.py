"""The check that each row of a keyed input file has its own identifier.

A set of every identifier would grow with the file's text. Here each
row keeps 16 bytes, its identifier's ``hash()`` and its line number, and
the hashes are sorted once. Equal hashes are only candidates: the
identifiers of just those lines are read again from the file and
compared as strings, so two distinct identifiers never count as a
repeat.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from .errors import EigenlinkError, IntegrityError


def line_qid(raw: bytes) -> str:
    """The ``qid`` of one valid line of a JSONL file keyed by qid."""
    # stripped as jsonl.rows strips it: str.strip() removes more than JSON whitespace
    return json.loads(raw.decode("utf-8").strip())["qid"]


class RowIds:
    """The identifiers of the rows accepted so far from the file at ``path``.

    ``key`` gives the identifier of one raw line of the file, and ``what``
    names it in the error, as in ``line 9: duplicate qid 'Q1'``.
    """

    def __init__(self, path: str, key: Callable[[bytes], str], what: str):
        self._path = path
        self._key = key
        self._what = what
        self._hashes = array("q")
        self._lines = array("q")

    def add(self, identifier: str, lineno: int) -> None:
        """Record a row; call it only once the row is valid."""
        self._hashes.append(hash(identifier))
        self._lines.append(lineno)

    def extend(self, identifiers: list[str], linenos: list[int]) -> None:
        """Record valid rows, as ``add`` on each pair in turn."""
        self._hashes.extend(map(hash, identifiers))
        self._lines.extend(linenos)

    def __len__(self) -> int:
        return len(self._hashes)

    def check(self) -> None:
        """Raise IntegrityError naming the first line whose identifier is on an earlier line."""
        hashes = np.frombuffer(self._hashes, dtype=np.int64)
        ordered = np.sort(hashes)
        tied = ordered[1:][ordered[1:] == ordered[:-1]]
        del ordered
        if not len(tied):
            return
        rows = np.flatnonzero(np.isin(hashes, tied))
        lines = [self._lines[row] for row in rows]
        identifiers = self._read(set(lines), lines[-1])
        seen: set[str] = set()
        for lineno in lines:
            if identifiers[lineno] in seen:
                raise IntegrityError(
                    f"line {lineno}: duplicate {self._what} {identifiers[lineno]!r}"
                )
            seen.add(identifiers[lineno])

    def _read(self, wanted: set[int], last: int) -> dict[int, str]:
        """The identifiers on the ``wanted`` lines, read no further than line ``last``."""
        found = {}
        with open(self._path, "rb") as fh:
            for lineno, raw in enumerate(fh, 1):
                if lineno in wanted:
                    found[lineno] = self._key(raw)
                if lineno == last:
                    return found
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
