"""Fixed-dimension vector stores for entities and words.

File format: UTF-8 text, first line ``N D``, then N lines of
``identifier v1 ... vD``. A store holds its vectors as the float64 rows
of one dense matrix.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from .errors import DataError, FormatError, IntegrityError
from .rowids import RowIds

NORM_EPS = 1e-12  # a norm at or below this counts as zero: the vector has no direction
# Text read and parsed at a time; small blocks keep the parser's
# transient memory far below that of the store.
_BLOCK_BYTES = 1 << 16


class EmbeddingStore:
    """identifier -> length-d vector: an (m, d) float64 matrix plus an id -> row map."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = dim
        self._matrix = np.empty((0, dim))
        self._row: dict[str, int] = {}

    def add(self, identifier: str, vector) -> None:
        vec = np.asarray(vector, dtype=np.float64)
        if vec.shape != (self.dim,):
            raise FormatError(
                f"vector for {identifier!r} has shape {vec.shape}, expected ({self.dim},)"
            )
        if not _norms_finite(vec[None, :]):  # as when any value is NaN or inf
            if np.isfinite(vec).all():
                raise DataError(
                    f"vector for {identifier!r} has values too large, their squared norm overflows"
                )
            raise DataError(f"vector for {identifier!r} has non-finite values")
        if identifier in self._row:
            raise IntegrityError(f"duplicate identifier {identifier!r}")
        self._append([identifier], vec[None, :])

    def _append(
        self, identifiers: list[str], rows: np.ndarray, reserve: int = 0, own: bool = False
    ) -> None:
        """Append rows for new identifiers.

        When the capacity runs out it doubles, or grows to ``reserve``
        rows if that is more. With ``own``, an empty store takes ``rows``,
        an (m, d) float64 matrix no one else holds, as its matrix uncopied.
        """
        n = len(self._row)
        end = n + len(identifiers)
        if own and n == 0:
            self._matrix = rows
        else:
            if end > len(self._matrix):
                grown = np.empty((max(end, 2 * len(self._matrix), reserve), self.dim))
                grown[:n] = self._matrix[:n]
                self._matrix = grown
            self._matrix[n:end] = rows
        self._row.update(zip(identifiers, range(n, end)))

    def get(self, identifier: str) -> np.ndarray | None:
        row = self._row.get(identifier)
        return None if row is None else self._matrix[row]

    def rows(self, identifiers: list[str]) -> np.ndarray:
        """The vectors of ``identifiers`` as a new (len(identifiers), d) matrix."""
        return self._matrix[[self._row[identifier] for identifier in identifiers]]

    def __contains__(self, identifier: str) -> bool:
        return identifier in self._row

    def __len__(self) -> int:
        return len(self._row)

    def identifiers(self):
        return self._row.keys()


def unit_normalize(v: np.ndarray) -> np.ndarray:
    """v / ||v||, leaving (near-)zero vectors untouched."""
    v = np.asarray(v, dtype=np.float64)
    norm = math.sqrt(float(v @ v))
    if norm <= NORM_EPS:
        return v.copy()
    return v / norm


def _squared_norms(m: np.ndarray) -> np.ndarray:
    """Each row's dot product with itself, as an (n, 1) column."""
    return np.matmul(m[:, None, :], m[:, :, None])[:, 0]


def unit_normalize_rows(m: np.ndarray) -> np.ndarray:
    """``unit_normalize`` of each row of ``m``, bit for bit, in one pass.

    Each row's squared norm is its own dot product, as in ``unit_normalize``.
    """
    norms = np.sqrt(_squared_norms(m))
    return np.divide(m, norms, out=m.copy(), where=norms > NORM_EPS)


def _norms_finite(m: np.ndarray) -> bool:
    """Whether no row's squared norm overflows, which would zero it in ``unit_normalize_rows``."""
    with np.errstate(over="ignore"):
        return bool(np.isfinite(_squared_norms(m)).all())


def _parse_values(rests: list[str]) -> np.ndarray:
    """Rows of whitespace-separated decimals as an (n, columns) array (numpy's C parser)."""
    return np.loadtxt(rests, dtype=np.float64, comments=None, ndmin=2)


def _check_rows(ids, rests, linenos, dim: int, seen: RowIds) -> np.ndarray:
    """Validate rows one by one, recording each valid one in ``seen``.

    Returns their values, or raises an error naming the first bad line.
    """
    rows = []
    for identifier, rest, lineno in zip(ids, rests, linenos):
        try:
            row = _parse_values([rest]) if rest else np.empty((1, 0))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: non-numeric value") from exc
        if row.shape != (1, dim):
            raise FormatError(
                f"line {lineno}: expected identifier plus {dim} values, got {row.size}"
            )
        if not np.all(np.isfinite(row)):
            raise DataError(f"line {lineno}: non-finite value")
        if not _norms_finite(row):
            raise DataError(f"line {lineno}: values too large, their squared norm overflows")
        seen.add(identifier, lineno)
        rows.append(row)
    return np.concatenate(rows)


def _parse_block(ids, rests, linenos, dim: int, seen: RowIds) -> np.ndarray:
    """Values of one block of rows; records the block's rows in ``seen``.

    The whole block is parsed at once; only a block with a bad row is
    parsed again row by row, to report that row's line.
    """
    # numpy skips empty rows, so identifier-only rows go straight to the row check
    if "" not in rests:
        try:
            values = _parse_values(rests)
        except ValueError:
            values = None
        # A row with a NaN or an infinity has a non-finite squared norm too.
        if values is not None and values.shape == (len(ids), dim) and _norms_finite(values):
            seen.extend(ids, linenos[0], linenos[-1])
            return values
    return _check_rows(ids, rests, linenos, dim, seen)


def _line_identifier(raw: bytes) -> str | None:
    parts = raw.decode("utf-8").split(None, 1)
    return parts[0] if parts else None


def load_embeddings(path: str, keep: Mapping[str, str] | None = None) -> EmbeddingStore:
    """Load a text embedding file, keeping only the identifiers in ``keep``.

    Every row is validated (UTF-8, field count, numeric and finite values
    whose squared norm is finite too, unique identifier) and the row count
    must match the header, but only rows whose identifier is in ``keep``
    are stored; without ``keep`` every row is. Each kept row is keyed by
    ``keep[identifier]``, so a caller that maps each identifier to itself
    shares its string objects with the store. The file is parsed in
    blocks of about 64 KiB.
    """
    with open(path, "rb") as fh, RowIds(path, _line_identifier, "identifier").checked() as seen:
        header = fh.readline().split()
        bad_header = "line 1: embedding header must be 'N D', integers with N >= 0 and D >= 1"
        try:
            count, dim = (int(field) for field in header)
            # D < 1, or too large to address, raises ValueError as well
            store = EmbeddingStore(dim)
        except ValueError as exc:
            raise FormatError(bad_header) from exc
        if count < 0:
            raise FormatError(bad_header)
        # The kept set, unlike the header, bounds the rows to be stored.
        reserve = min(count, len(keep)) if keep is not None else 0
        lineno = 1
        while lines := fh.readlines(_BLOCK_BYTES):
            ids, rests, linenos = [], [], []
            for lineno, raw in enumerate(lines, start=lineno + 1):
                try:
                    parts = raw.decode("utf-8").split(None, 1)
                except UnicodeDecodeError as exc:
                    if ids:  # an error on an earlier row of the block comes first
                        _parse_block(ids, rests, linenos, dim, seen)
                    raise FormatError(f"line {lineno}: not valid UTF-8") from exc
                if parts:
                    ids.append(parts[0])
                    rests.append(parts[1] if len(parts) == 2 else "")
                    linenos.append(lineno)
            if not ids:
                continue
            values = _parse_block(ids, rests, linenos, dim, seen)
            if keep is None:
                store._append(ids, values)
            else:
                kept = [i for i, identifier in enumerate(ids) if identifier in keep]
                store._append([keep[ids[i]] for i in kept], values[kept], reserve)
        if len(seen) != count:
            raise FormatError(f"line 1: header declares {count} rows but the file has {len(seen)}")
    return store


def write_embeddings(store: EmbeddingStore, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(store)} {store.dim}\n")
        for identifier in store.identifiers():
            vec = store.get(identifier)
            fh.write(identifier + " " + " ".join("%.9g" % x for x in vec) + "\n")
