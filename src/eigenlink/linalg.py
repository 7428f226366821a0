"""Dense numerical kernels.

The truncated SVD of a (weighted) row matrix is LAPACK's thin SVD of
W E; only its right singular vectors and singular values are kept.

Products and SVDs of large matrices give different bits on different
BLAS thread counts, so linking runs BLAS on one thread
(``pin_blas_threads``).
"""

from __future__ import annotations

import ctypes
import functools
import glob
import logging
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, EmptyDocumentError, NumericalError

log = logging.getLogger("eigenlink")

# numpy's wheels bundle OpenBLAS here, with this thread-count setter.
_NUMPY_LIBS = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
_OPENBLAS = os.path.join(_NUMPY_LIBS, "libscipy_openblas*.so")
_SET_THREADS = "scipy_openblas_set_num_threads64_"

# Singular values with sigma_i^2 <= RANK_TOL_FACTOR * sigma_1^2 are treated
# as rank deficiency.
RANK_TOL_FACTOR = 1e-10


@dataclass
class Subspace:
    """Orthonormal basis columns plus their strengths (singular values)."""

    basis: np.ndarray  # (d, k), columns orthonormal
    strengths: np.ndarray  # (k,), non-increasing, >= 0

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


@functools.cache
def pin_blas_threads() -> bool:
    """Run numpy's BLAS on one thread in this process, whatever OPENBLAS_NUM_THREADS says.

    The setting is process-wide, so it covers every thread that links.
    Returns whether it could: a numpy built against another BLAS has no
    such setter, and then a warning says that artifacts of large
    documents may depend on the BLAS thread count.
    """
    for path in sorted(glob.glob(_OPENBLAS)):
        setter = getattr(ctypes.CDLL(path), _SET_THREADS, None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            return True
    log.warning(
        "cannot pin BLAS to one thread (no %s in numpy's bundled OpenBLAS); "
        "results of large documents may depend on the BLAS thread count",
        _SET_THREADS,
    )
    return False


def truncated_svd(E: np.ndarray, w: np.ndarray, k: int) -> Subspace:
    """Rank-k right-singular subspace of the weighted row matrix W E.

    The effective rank may come out below the requested k: singular
    values with sigma_i^2 <= RANK_TOL_FACTOR * sigma_1^2 are dropped.
    """
    E = np.asarray(E, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if E.ndim != 2:
        raise DimensionError(f"expected a 2-d row matrix, got shape {E.shape}")
    if w.shape != (E.shape[0],):
        raise DimensionError(
            f"weight vector of length {w.shape} does not match {E.shape[0]} rows"
        )
    if not np.all(np.isfinite(E)):
        raise DataError("row matrix has non-finite entries")
    if not np.all(np.isfinite(w)):
        raise DataError("weights have non-finite entries")
    if np.any(w < 0.0):
        raise DataError("weights must be non-negative")
    WE = w[:, None] * E
    if WE.shape[0] == 0:
        raise EmptyDocumentError("cannot learn a subspace from zero rows")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    try:
        _, sigma, vt = np.linalg.svd(WE, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    if sigma.size == 0 or sigma[0] <= 0.0:
        effective = 0
    else:
        effective = min(k, int(np.sum((sigma / sigma[0]) ** 2 > RANK_TOL_FACTOR)))
    return Subspace(basis=vt[:effective].T.copy(), strengths=sigma[:effective].copy())
