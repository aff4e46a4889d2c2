"""Dense complex-matrix kernel: Hermitian eigendecompositions, orthonormal
range (by SVD) and kernel (by eigendecomposition) extraction.

Every rank decision -- which singular values of a spanning set and which
eigenvalues of a Hermitian matrix count as zero -- uses the one threshold
rank_cutoff.  Everything downstream (lattice operations, operator
identities) reduces to these primitives.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, NonHermitianInput
from .tolerances import Tolerance, default_tolerance

HERMITICITY_RTOL = 1e-8


class EigenDecomposition(NamedTuple):
    eigenvalues: np.ndarray   # real, ascending
    eigenvectors: np.ndarray  # unit-norm columns, mutually orthonormal


def as_matrix(A) -> np.ndarray:
    """Coerce to a 2-d complex array and reject non-finite entries."""
    M = np.asarray(A, dtype=complex)
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={M.ndim}")
    if not (np.all(np.isfinite(M.real)) and np.all(np.isfinite(M.imag))):
        raise ValueError("matrix contains non-finite entries")
    return M


def frobenius(A) -> float:
    return float(np.linalg.norm(A))


def require_hermitian(A: np.ndarray, context: str = "input") -> np.ndarray:
    """Check Hermiticity and return the exactly symmetrized matrix."""
    if A.shape[0] != A.shape[1]:
        raise NonHermitianInput(f"{context}: matrix is not square {A.shape}")
    defect = frobenius(A - A.conj().T)
    if defect > HERMITICITY_RTOL * max(1.0, frobenius(A)):
        raise NonHermitianInput(f"{context}: Hermiticity defect {defect:.3e}")
    return (A + A.conj().T) / 2.0


def hermitian_eig(A) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix (numpy.linalg.eigh),
    eigenvalues ascending.

    Residual contract, shared with jacobi_hermitian_eig:
    ||A v_i - w_i v_i|| <= 1e-10 ||A||_F per pair, orthonormal eigenvectors.
    """
    M = require_hermitian(as_matrix(A), "hermitian_eig")
    w, V = np.linalg.eigh(M)
    return EigenDecomposition(w, V)


def jacobi_hermitian_eig(A, sweep_cap: int = 100) -> EigenDecomposition:
    """Cyclic Jacobi diagonalization with complex Givens rotations.

    Sweeps zero each off-diagonal entry in turn until the off-diagonal
    Frobenius mass falls below 1e-14 ||A||_F.  Slower than LAPACK but fully
    transparent; the tests use it as an independent reference for
    hermitian_eig.
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
        raise NoConvergence(f"jacobi sweep cap {sweep_cap} reached, off-diagonal {off_norm(M):.3e}")
    w = np.diag(M).real.copy()
    order = np.argsort(w, kind="stable")
    return EigenDecomposition(w[order], V[:, order])


def rank_cutoff(M: np.ndarray, tol: Tolerance) -> float:
    """The one rank rule: a singular value or eigenvalue of M at or below
    this threshold (rank_eps relative to ||M||_F, absolute below 1) is zero."""
    return tol.rank_eps * max(1.0, frobenius(M))


def orthonormal_range(A, tol: Tolerance | None = None) -> np.ndarray:
    """Orthonormal basis of the column space of A.

    The left singular vectors whose singular value exceeds rank_cutoff, so
    the column count is the numerical rank.  A zero (or empty) matrix yields
    a 0-column result.
    """
    tol = tol or default_tolerance()
    M = as_matrix(A)
    if M.shape[1] == 0:
        return np.zeros((M.shape[0], 0), dtype=complex)
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    return U[:, s > rank_cutoff(M, tol)]


def kernel(A, tol: Tolerance | None = None) -> np.ndarray:
    """Orthonormal basis of the near-null eigenspace of a Hermitian matrix.

    Columns span the eigenspace with |w| <= rank_cutoff(A).
    """
    tol = tol or default_tolerance()
    M = as_matrix(A)
    w, V = hermitian_eig(M)
    return V[:, np.abs(w) <= rank_cutoff(M, tol)]
