import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenlink import linalg
from eigenlink.errors import (
    DataError,
    DimensionError,
    EmptyDocumentError,
    NumericalError,
)
from eigenlink.embeddings import unit_normalize_rows
from eigenlink.linalg import RANK_TOL_FACTOR, Subspace, pin_blas_threads, truncated_svd

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


def oracle_truncated_svd(E, w, k):
    """``truncated_svd`` as LAPACK's thin SVD of W E, without input checks.

    Keeps sigma_i while sigma_i^2 > RANK_TOL_FACTOR * sigma_1^2, at most k
    of them; the left singular vectors it computes go unread.
    """
    WE = w[:, None] * E
    _, sigma, vt = np.linalg.svd(WE, full_matrices=False)
    if sigma.size == 0 or sigma[0] <= 0.0:
        effective = 0
    else:
        effective = min(k, int(np.sum((sigma / sigma[0]) ** 2 > RANK_TOL_FACTOR)))
    return Subspace(basis=vt[:effective].T.copy(), strengths=sigma[:effective].copy())


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

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalError):
        truncated_svd(np.eye(3), np.ones(3), k=1)


def test_blas_without_the_thread_setter_is_reported(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(linalg, "_OPENBLAS", str(tmp_path / "libscipy_openblas*.so"))
    assert pin_blas_threads.__wrapped__() is False
    (record,) = caplog.records
    assert record.levelname == "WARNING"
    assert "may depend on the BLAS thread count" in record.getMessage()


# ---------------------------------------------------------------------------
# truncated_svd (a Gram matrix's eigendecomposition) against the thin-SVD oracle

EPS = np.finfo(np.float64).eps
KINDS = ("random", "duplicated", "low_rank", "tied", "above", "below")


def spectral_error_bound(n, d):
    """eta: |lambda_i - sigma_i^2| <= eta * sigma_1^2 for every i, by Weyl's inequality.

    Both decompositions are backward stable, so each gives the exact
    spectrum of a perturbed Gram matrix, and Weyl's inequality moves each
    eigenvalue by at most the 2-norm of that perturbation. With A = W E,
    r = min(n, d) and m = max(n, d), the inner length of the Gram product:
    - forming the Gram matrix: |dG| <= gamma_m |A|^T |A| elementwise, so
      ||dG|| <= gamma_m ||A||_F^2 <= gamma_m r sigma_1^2;
    - eigh of the r x r Gram matrix: ||dG|| <= p(r) eps ||G||, LAPACK's
      bound with its "modestly growing" p(r) taken as r;
    - the oracle's thin SVD: ||dA|| <= r eps sigma_1, which moves its
      sigma_i^2 by at most (2 r eps + (r eps)^2) sigma_1^2 <= 3 r eps sigma_1^2.
    """
    r, m = min(n, d), max(n, d)
    gamma_m = m * EPS / (1 - m * EPS)
    return gamma_m * r + 4 * r * EPS


def planted(rng, rows, d, sigmas):
    """A (rows, d) matrix whose singular values are ``sigmas``, then zeros."""
    r = len(sigmas)
    left, right = random_orthonormal(rng, rows, r), random_orthonormal(rng, d, r)
    return left @ (np.asarray(sigmas)[:, None] * right.T)


@st.composite
def subspace_cases(draw):
    """(E, w, k, kind, planted effective k or None), from a seeded generator."""
    d = draw(st.integers(1, 12))
    n = draw(st.sampled_from([1, max(1, d - 1), d, d + 1]) | st.integers(1, 2 * d + 3))
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    near = kind in ("above", "below")
    if near and min(n, d) < 2:
        kind, near = "random", False
    # Zero weights, leaving a near-threshold case at least two rows to plant in.
    zeros = draw(st.integers(0, n - 2 if near else n)) if draw(st.booleans()) else 0
    w = rng.uniform(0.1, 2.0, n)
    w[rng.choice(n, size=zeros, replace=False)] = 0.0
    live = np.flatnonzero(w)
    E = rng.standard_normal((n, d))
    expected = None
    if kind == "duplicated":
        E = E[rng.integers(0, int(rng.integers(1, n + 1)), size=n)]
    elif kind == "low_rank":
        r = int(rng.integers(1, min(n, d) + 1))
        E = rng.standard_normal((n, r)) @ rng.standard_normal((r, d))
    elif kind == "tied" and len(live):
        r = int(rng.integers(1, min(len(live), d) + 1))
        sigmas = np.repeat(2.0 ** -np.arange(r), 2)[:r]  # pairs of equal values
        E[live] = planted(rng, len(live), d, sigmas) / w[live, None]
    elif near:
        r = int(rng.integers(2, min(len(live), d) + 1))
        factor = 1 + 1e-3 if kind == "above" else 1 - 1e-3
        # sigma_1 = 1, the rest above the threshold, sigma_r^2 just above or below it.
        sigmas = np.sort(rng.uniform(0.05, 1.0, r - 2))[::-1]
        sigmas = [1.0, *sigmas, math.sqrt(factor * RANK_TOL_FACTOR)]
        E[live] = planted(rng, len(live), d, sigmas) / w[live, None]
        expected = r if kind == "above" else r - 1
    k = draw(st.integers(1, min(n, d) + 2))
    if expected is not None:
        k = max(k, r)
        expected = min(expected, k)
    return E, w, k, kind, expected


@settings(max_examples=400, deadline=None)
@given(subspace_cases())
def test_gram_eigendecomposition_matches_the_thin_svd(case):
    """Same effective k, squared strengths within Weyl's bound and, where the
    top-k subspace is unique, every row's score within the Davis-Kahan bound.

    When sigma_k = sigma_{k+1} (to within the error), the top-k subspace is
    not unique: any basis of the tied directions is right, and the scores
    may differ by far more than rounding. Then only the strengths and the
    effective k are compared.
    """
    E, w, k, kind, expected = case
    n, d = E.shape
    got, want = truncated_svd(E, w, k), oracle_truncated_svd(E, w, k)
    assert got.rank == want.rank, kind
    if expected is not None:  # the case was planted where it was meant to be
        assert want.rank == expected, kind
    assert got.basis.shape == want.basis.shape == (d, want.rank)
    sigma = np.linalg.svd(w[:, None] * E, compute_uv=False)
    s1sq = float(sigma[0] ** 2) if sigma.size else 0.0
    eta = spectral_error_bound(n, d)
    assert np.all(np.abs(got.strengths**2 - want.strengths**2) <= eta * s1sq), kind

    kept = want.rank
    below = float(sigma[kept] ** 2) if kept < sigma.size else 0.0
    # The exact gap is at least the oracle's less its error; Weyl again.
    separation = (float(want.strengths[-1] ** 2) - below - 3 * eta * s1sq) if kept else 0.0
    if kept == 0 or separation <= 0.0:
        return  # no subspace, or a tied one: strengths and effective k only
    # Davis-Kahan: the projector onto the top-k subspace moves by at most
    # ||dG|| / separation, so the truncated Gram matrix V S^2 V^T moves by at
    # most eta s1sq (1 + s1sq / separation), and a squared score
    # e^T V S^2 V^T e by ||e||^2 times that, X. Then |s - s'| <= sqrt(X),
    # and |s - s'| <= X / (s + s'), the sharper one for a well-scored row.
    # The scoring products and, for n <= d, forming A^T U_k add at most
    # 3 gamma_m r sigma_1 ||e||, also taken off s + s'.
    m, r = max(n, d), min(n, d)
    rows = unit_normalize_rows(E)
    norms = np.linalg.norm(rows, axis=1)
    squared = norms**2 * s1sq * eta * (1 + s1sq / separation)
    rounding = 3 * m * EPS / (1 - m * EPS) * r * math.sqrt(s1sq) * norms
    scores_got = np.linalg.norm((rows @ got.basis) * got.strengths, axis=1)
    scores_want = np.linalg.norm((rows @ want.basis) * want.strengths, axis=1)
    total = np.maximum(scores_got + scores_want - 2 * rounding, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        sharper = np.where(total > 0.0, squared / total, np.inf)
    bound = np.minimum(np.sqrt(squared), sharper) + rounding
    diff = np.abs(scores_got - scores_want)
    assert np.all(diff <= bound), (kind, float((diff / np.maximum(bound, 1e-300)).max()))
