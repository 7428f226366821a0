import math

import numpy as np
import pytest

from eigenlink import linalg
from eigenlink.errors import (
    DataError,
    DimensionError,
    EmptyDocumentError,
    NumericalError,
)
from eigenlink.linalg import pin_blas_threads, truncated_svd

# ---------------------------------------------------------------------------
# Independent oracles


def count_eigs_below(A, x):
    """Eigenvalues of symmetric A strictly below x, from the pivot signs of
    a Gaussian elimination of A - x*I (Sylvester inertia). Returns None
    when a pivot lands exactly on zero so the caller can nudge x."""
    M = A - x * np.eye(A.shape[0])
    neg = 0
    for i in range(M.shape[0]):
        piv = M[i, i]
        if piv == 0.0:
            return None
        if piv < 0.0:
            neg += 1
        M[i + 1 :, i + 1 :] -= np.outer(M[i + 1 :, i], M[i, i + 1 :]) / piv
    return neg


def bisect_eigenvalues(A, how_many=None):
    """Largest eigenvalues of symmetric A by pure bisection on the inertia."""
    n = A.shape[0]
    radius = float(np.abs(A).sum(axis=1).max())
    scale = max(radius, 1.0)

    def count(x):
        c = count_eigs_below(A, x)
        while c is None:
            x += scale * 1e-13
            c = count_eigs_below(A, x)
        return c

    how_many = n if how_many is None else how_many
    out = []
    for rank in range(1, how_many + 1):  # rank-th largest = (n-rank+1)-th smallest
        j = n - rank + 1
        lo, hi = -radius - 1.0, radius + 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if count(mid) >= j:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-15 * scale:
                break
        out.append(0.5 * (lo + hi))
    return np.array(out)


def naive_weighted_sscp(E, w):
    """(WE)^T (WE) with explicit Python loops, no matrix routines."""
    n, d = E.shape
    we = [[w[i] * E[i, j] for j in range(d)] for i in range(n)]
    out = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            acc = 0.0
            for i in range(n):
                acc += we[i][a] * we[i][b]
            out[a, b] = acc
    return out


def random_orthonormal(rng, d, k):
    q, _ = np.linalg.qr(rng.standard_normal((d, k)))
    return q[:, :k]


def reconstruction_error(E, basis):
    return float(np.linalg.norm(E - E @ basis @ basis.T))


# ---------------------------------------------------------------------------
# truncated_svd


def sscp_from(sub):
    """V diag(sigma^2) V^T: the weighted SSCP matrix a full-rank subspace gives back."""
    return (sub.basis * sub.strengths**2) @ sub.basis.T


def test_single_row_outer_product():
    e = np.array([[1.0, 2.0, -1.0]])
    sub = truncated_svd(e, np.array([3.0]), k=3)
    assert sub.rank == 1
    assert np.allclose(sscp_from(sub), 9.0 * np.outer(e[0], e[0]))


def test_matches_naive_triple_loop():
    rng = np.random.default_rng(8)
    for _ in range(5):
        E = rng.standard_normal((6, 4))
        w = rng.uniform(0, 2, size=6)
        sub = truncated_svd(E, w, k=4)
        assert np.abs(sscp_from(sub) - naive_weighted_sscp(E, w)).max() < 1e-12


def test_svd_input_validation():
    E = np.ones((3, 2))
    with pytest.raises(DimensionError):
        truncated_svd(E, np.ones(4), k=1)
    with pytest.raises(DataError):
        truncated_svd(E, np.array([1.0, -0.5, 1.0]), k=1)
    with pytest.raises(DataError):
        truncated_svd(E, np.array([1.0, np.inf, 1.0]), k=1)


def test_rank_one_ensemble():
    u = np.array([0.6, 0.0, 0.8])
    E = np.tile(u, (5, 1))
    sub = truncated_svd(E, np.ones(5), k=1)
    assert sub.rank == 1
    assert sub.strengths[0] == pytest.approx(math.sqrt(5), abs=1e-10)
    assert abs(abs(sub.basis[:, 0] @ u) - 1.0) < 1e-10


def test_diagonal_singular_values():
    E = np.array([[3.0, 0.0], [0.0, 2.0]])
    sub = truncated_svd(E, np.ones(2), k=1)
    assert sub.strengths[0] == pytest.approx(3.0, abs=1e-10)
    assert abs(abs(sub.basis[:, 0] @ [1.0, 0.0]) - 1.0) < 1e-10


def test_requested_k_clamps_to_effective_rank():
    rng = np.random.default_rng(10)
    coeffs = rng.standard_normal((10, 2))
    span = rng.standard_normal((2, 6))
    E = coeffs @ span  # rank 2 by construction
    sub = truncated_svd(E, np.ones(10), k=5)
    assert sub.rank == 2
    assert all(s > 0 for s in sub.strengths)


def test_zero_rows_clamp_to_rank_zero():
    sub = truncated_svd(np.zeros((4, 3)), np.ones(4), k=2)
    assert sub.rank == 0


def test_empty_document_rejected():
    with pytest.raises(EmptyDocumentError):
        truncated_svd(np.zeros((0, 4)), np.zeros(0), k=1)


def test_bad_k_rejected():
    with pytest.raises(ValueError):
        truncated_svd(np.ones((2, 2)), np.ones(2), k=0)


def test_eckart_young_on_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, d, k = rng.integers(8, 24), rng.integers(4, 10), int(rng.integers(1, 4))
        E = rng.standard_normal((n, d))
        sub = truncated_svd(E, np.ones(n), k=k)
        err = reconstruction_error(E, sub.basis)
        for _ in range(20):
            Q = random_orthonormal(rng, d, k)
            assert err <= reconstruction_error(E, Q) + 1e-9


def test_basis_orthonormal_and_strengths_sorted():
    rng = np.random.default_rng(12)
    for _ in range(10):
        E = rng.standard_normal((15, 8))
        w = rng.uniform(0, 1, 15)
        sub = truncated_svd(E, w, k=4)
        assert np.abs(sub.basis.T @ sub.basis - np.eye(sub.rank)).max() < 1e-8
        assert all(a >= b - 1e-12 for a, b in zip(sub.strengths, sub.strengths[1:]))
        assert all(s >= 0 for s in sub.strengths)


def test_strengths_match_numpy_singular_values():
    rng = np.random.default_rng(13)
    for _ in range(10):
        E = rng.standard_normal((12, 6))
        w = rng.uniform(0.1, 2.0, 12)
        sub = truncated_svd(E, w, k=3)
        ref = np.linalg.svd(w[:, None] * E, compute_uv=False)[:3]
        assert np.abs(sub.strengths - ref).max() < 1e-8 * ref[0]


def test_lapack_failure_is_numerical_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NumericalError):
        truncated_svd(np.eye(3), np.ones(3), k=1)


def test_blas_without_the_thread_setter_is_reported(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(linalg, "_OPENBLAS", str(tmp_path / "libscipy_openblas*.so"))
    assert pin_blas_threads.__wrapped__() is False
    (record,) = caplog.records
    assert record.levelname == "WARNING"
    assert "may depend on the BLAS thread count" in record.getMessage()
