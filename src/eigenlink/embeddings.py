"""Fixed-dimension vector stores for entities and words.

File format: UTF-8 text, first line ``N D``, then N lines of
``identifier v1 ... vD``. Vectors are served as float64 numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, FormatError, IntegrityError

_NORM_EPS = 1e-12


class EmbeddingStore:
    """identifier -> length-d vector, with a single dimension per store."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = dim
        self._vectors: dict[str, np.ndarray] = {}

    def add(self, identifier: str, vector) -> None:
        vec = np.asarray(vector, dtype=np.float64)
        if vec.shape != (self.dim,):
            raise FormatError(
                f"vector for {identifier!r} has shape {vec.shape}, expected ({self.dim},)"
            )
        if not np.all(np.isfinite(vec)):
            raise DataError(f"vector for {identifier!r} has non-finite values")
        self._vectors[identifier] = vec

    def get(self, identifier: str) -> np.ndarray | None:
        return self._vectors.get(identifier)

    def __contains__(self, identifier: str) -> bool:
        return identifier in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def identifiers(self):
        return self._vectors.keys()


def unit_normalize(v: np.ndarray) -> np.ndarray:
    """v / ||v||, leaving (near-)zero vectors untouched."""
    v = np.asarray(v, dtype=np.float64)
    norm = math.sqrt(float(v @ v))
    if norm <= _NORM_EPS:
        return v.copy()
    return v / norm


def load_embeddings(path: str) -> EmbeddingStore:
    """Load a text embedding file, validating the declared count and dimension."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise FormatError("embedding header must be 'N D'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise FormatError("embedding header must hold two integers") from exc
        if count < 0 or dim < 1:
            raise FormatError(f"invalid embedding header N={count} D={dim}")
        store = EmbeddingStore(dim)
        n_rows = 0
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != dim + 1:
                raise FormatError(
                    f"line {lineno}: expected identifier plus {dim} values, got {len(parts) - 1}"
                )
            try:
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise FormatError(f"line {lineno}: non-numeric value") from exc
            if not np.all(np.isfinite(vec)):
                raise DataError(f"line {lineno}: non-finite value")
            if parts[0] in store:
                raise IntegrityError(f"line {lineno}: duplicate identifier {parts[0]!r}")
            store.add(parts[0], vec)
            n_rows += 1
        if n_rows != count:
            raise FormatError(f"header declares {count} rows but file has {n_rows}")
    return store


def write_embeddings(store: EmbeddingStore, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(store)} {store.dim}\n")
        for identifier in store.identifiers():
            vec = store.get(identifier)
            fh.write(identifier + " " + " ".join("%.9g" % x for x in vec) + "\n")
