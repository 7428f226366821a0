"""Dense numerical kernels.

The truncated SVD of a (weighted) row matrix A = W E is read off the
symmetric eigendecomposition (LAPACK's ``eigh``) of its smaller Gram
matrix, so the left singular vectors of a thin SVD, which nothing reads,
are never made. With n rows and d columns:

- n > d: the eigenvectors of A^T A (d x d) are the right singular
  vectors V, its eigenvalues the squared singular values;
- n <= d: the eigenvectors of A A^T (n x n) are the left singular
  vectors U, and V_k = A^T U_k / sigma_k for each kept direction.

Both give the thin SVD's singular values and top-k subspace, since
A = U S V^T makes A^T A = V S^2 V^T, A A^T = U S^2 U^T and A^T U = V S.
A Gram matrix squares the condition number: its eigenvalues carry an
absolute error of order eps * sigma_1^2, so a direction with sigma_i^2
near the rank threshold (1e-10 * sigma_1^2, far above that error) keeps
its place in the effective k but loses accuracy in its column of V.

Products and decompositions of large matrices give different bits on
different BLAS thread counts, so linking runs BLAS on one thread
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

    It comes from the eigendecomposition of the smaller Gram matrix of
    W E (see the module docstring). The effective rank may come out
    below the requested k: singular values with
    sigma_i^2 <= RANK_TOL_FACTOR * sigma_1^2 are dropped.
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
    n, d = WE.shape
    try:
        lam, vecs = np.linalg.eigh(WE.T @ WE if n > d else WE @ WE.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    lam, vecs = lam[::-1], vecs[:, ::-1]  # eigh's order is ascending
    if lam.size == 0 or lam[0] <= 0.0:
        effective = 0
    else:
        effective = min(k, int(np.sum(lam / lam[0] > RANK_TOL_FACTOR)))
    sigma = np.sqrt(lam[:effective])
    top = vecs[:, :effective]
    basis = top.copy() if n > d else (WE.T @ top) / sigma
    return Subspace(basis=basis, strengths=sigma)
