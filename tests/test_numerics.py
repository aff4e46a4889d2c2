import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlattice.errors import InvalidMatrix, NonHermitianInput, QLatticeError
from qlattice.lattice import Subspace
from qlattice.numerics import (EigenDecomposition, as_matrix, frobenius,
                               hermitian_eig, kernel, orthonormal_range,
                               require_hermitian)
from qlattice.rng import Xorshift64Star


def jacobi_hermitian_eig(A, sweep_cap: int = 100) -> EigenDecomposition:
    """Cyclic Jacobi diagonalization with complex Givens rotations.

    Sweeps zero each off-diagonal entry in turn until the off-diagonal
    Frobenius mass falls below 1e-14 ||A||_F.  Slower than LAPACK but fully
    transparent; the independent reference for hermitian_eig.
    """
    M = require_hermitian(as_matrix(A), "jacobi_hermitian_eig")
    n = M.shape[0]
    V = np.eye(n, dtype=complex)
    norm_a = frobenius(M)
    if norm_a == 0.0 or n == 1:
        w = np.diag(M).real.copy()
        order = np.argsort(w, kind="stable")
        return EigenDecomposition(w[order], V[:, order])

    def off_norm(X):
        # summed directly (not as a difference of totals) to avoid cancellation
        off = X - np.diag(np.diag(X))
        return float(np.linalg.norm(off))

    converged = False
    for _ in range(sweep_cap):
        if off_norm(M) <= 1e-14 * norm_a:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                b = M[p, q]
                if abs(b) <= 1e-18 * norm_a:
                    continue
                # zero M[p,q] with the plane rotation R: R[p,p]=R[q,q]=c,
                # R[p,q]=s, R[q,p]=-conj(s), applied as M <- R^H M R; the
                # tangent t solves t^2 - 2*tau*t - 1 = 0 (smaller-angle root)
                a_pp = M[p, p].real
                a_qq = M[q, q].real
                tau = (a_pp - a_qq) / (2.0 * abs(b))
                # smaller-magnitude root of t^2 - 2 tau t - 1, in the
                # cancellation-free form -sign(tau)/(|tau| + sqrt(1+tau^2))
                t = -np.copysign(1.0, tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = (t * c) * (b / abs(b))
                # rows p,q of R^H M
                rp = M[p, :].copy()
                rq = M[q, :].copy()
                M[p, :] = c * rp - s * rq
                M[q, :] = np.conj(s) * rp + c * rq
                # columns p,q of (.) R
                cp = M[:, p].copy()
                cq = M[:, q].copy()
                M[:, p] = c * cp - np.conj(s) * cq
                M[:, q] = s * cp + c * cq
                M[p, q] = 0.0
                M[q, p] = 0.0
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - np.conj(s) * vq
                V[:, q] = s * vp + c * vq
    else:
        converged = off_norm(M) <= 1e-14 * norm_a
    if not converged:
        raise AssertionError(f"jacobi sweep cap {sweep_cap} reached, off-diagonal {off_norm(M):.3e}")
    w = np.diag(M).real.copy()
    order = np.argsort(w, kind="stable")
    return EigenDecomposition(w[order], V[:, order])


def random_hermitian(rng, n):
    G = rng.complex_gaussian_matrix(n, n)
    return (G + G.conj().T) / 2.0


def test_eig_identity_matrix():
    w, V = hermitian_eig(np.eye(3))
    assert np.allclose(w, [1.0, 1.0, 1.0])
    assert np.allclose(V.conj().T @ V, np.eye(3))


def test_eig_diagonal_already_sorted_ascending():
    w, _ = hermitian_eig(np.diag([0.2, -0.2]))
    assert np.allclose(w, [-0.2, 0.2])


def test_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("call", [
    lambda: Subspace.line([float("nan"), 1.0]),
    lambda: orthonormal_range(np.array([[1.0, np.inf], [0.0, 1.0]])),
    lambda: hermitian_eig(np.full((2, 2), np.nan)),
    lambda: orthonormal_range(np.zeros((2, 2, 2))),
], ids=["line-nan", "range-inf", "eig-nan", "range-3d"])
def test_malformed_matrix_input_raises_typed_error(call):
    with pytest.raises(InvalidMatrix) as info:
        call()
    # still a ValueError for callers that caught the untyped error
    assert isinstance(info.value, QLatticeError)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("eig", [hermitian_eig, jacobi_hermitian_eig], ids=["lapack", "jacobi"])
def test_eig_reconstruction_contract(eig, rng):
    for k in range(40):
        n = 2 + k % 7
        A = random_hermitian(rng, n)
        w, V = eig(A)
        scale = max(1.0, np.linalg.norm(A))
        assert np.linalg.norm(A - V @ np.diag(w) @ V.conj().T) <= 1e-9 * scale
        assert np.linalg.norm(A @ V - V @ np.diag(w)) <= 1e-10 * np.linalg.norm(A) + 1e-12
        assert np.linalg.norm(V.conj().T @ V - np.eye(n)) <= 1e-10
        assert np.all(np.diff(w) >= -1e-12)


def test_jacobi_agrees_with_lapack(rng):
    for _ in range(25):
        A = random_hermitian(rng, 6)
        w1, _ = hermitian_eig(A)
        w2, _ = jacobi_hermitian_eig(A)
        assert np.max(np.abs(w1 - w2)) <= 1e-12 * max(1.0, np.linalg.norm(A))


def test_jacobi_degenerate_spectrum(rng):
    Q = orthonormal_range(rng.complex_gaussian_matrix(5, 5))
    A = Q @ np.diag([2.0, 2.0, 2.0, -1.0, -1.0]) @ Q.conj().T
    w, V = jacobi_hermitian_eig(A)
    assert np.allclose(np.sort(w), [-1, -1, 2, 2, 2], atol=1e-12)
    assert np.linalg.norm(A @ V - V @ np.diag(w)) <= 1e-12 * np.linalg.norm(A)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_eig_reconstruction_property(seed):
    rng = Xorshift64Star(seed)
    n = 2 + seed % 7
    A = random_hermitian(rng, n)
    w, V = hermitian_eig(A)
    assert np.linalg.norm(A - V @ np.diag(w) @ V.conj().T) <= 1e-9 * max(1.0, np.linalg.norm(A))


def test_range_collinear_columns():
    A = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
    Q = orthonormal_range(A)
    assert Q.shape == (3, 1)
    assert abs(abs(Q[0, 0]) - 1.0) <= 1e-12


def test_range_example_vectors_span_plane():
    v1 = np.array([0.3, 0.3, 0.905])
    v2 = np.array([0.4, 0.5, 0.768])
    Q = orthonormal_range(np.column_stack([v1, v2]))
    assert Q.shape[1] == 2


def test_range_full_rank_random(rng):
    A = rng.complex_gaussian_matrix(4, 4)
    Q = orthonormal_range(A)
    assert Q.shape[1] == 4
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(4)) <= 1e-10


def kahan_matrix(n=16, c=0.9):
    # diag(s^k)(I - c triu(1,1)): a tiny smallest singular value although no
    # Gram-Schmidt column residual is small; the (1-1e-10)^k column scaling
    # makes column-norm pivoting keep the natural column order
    s = np.sqrt(1.0 - c * c)
    k = np.arange(n)
    return (np.diag(s ** k) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
            * (1.0 - 1e-10) ** k)


def test_range_matches_svd_rank(rng):
    # independent rank oracle: rank-deficient products and a Kahan matrix
    # (sigma_min = 4.5e-10, numerical rank 15 of 16)
    inputs = [rng.complex_gaussian_matrix(5, 3) @ rng.complex_gaussian_matrix(3, 7)
              for _ in range(30)]
    for A in inputs + [kahan_matrix()]:
        cutoff = 1e-9 * max(1.0, np.linalg.norm(A))
        svd_rank = int(np.sum(np.linalg.svd(A, compute_uv=False) > cutoff))
        assert orthonormal_range(A).shape[1] == svd_rank


def test_range_idempotent_in_span(rng):
    A = rng.complex_gaussian_matrix(5, 3)
    Q1 = orthonormal_range(A)
    Q2 = orthonormal_range(Q1)
    P1 = Q1 @ Q1.conj().T
    P2 = Q2 @ Q2.conj().T
    assert np.linalg.norm(P1 - P2) <= 1e-10


def test_range_zero_matrix():
    assert orthonormal_range(np.zeros((4, 3))).shape == (4, 0)


def test_kernel_zero_matrix():
    assert kernel(np.zeros((2, 2))).shape[1] == 2


def test_kernel_of_line_projector():
    P = np.array([[1.0, 0.0], [0.0, 0.0]])
    K = kernel(P)
    assert K.shape[1] == 1
    assert abs(abs(K[1, 0]) - 1.0) <= 1e-12


def test_kernel_orthogonal_lines_meet_is_empty():
    # two orthogonal lines in d=3: eigenvalue-2 space of P1+P2 is empty
    P1 = np.diag([1.0, 0.0, 0.0])
    P2 = np.diag([0.0, 1.0, 0.0])
    assert kernel(P1 + P2 - 2.0 * np.eye(3)).shape[1] == 0


def test_rank_plus_kernel_dimension(rng):
    for _ in range(15):
        Q = orthonormal_range(rng.complex_gaussian_matrix(6, 3))
        P = Q @ Q.conj().T
        assert Q.shape[1] + kernel(P).shape[1] == 6
