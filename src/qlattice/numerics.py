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

from .errors import InvalidMatrix, NonHermitianInput
from .tolerances import DEFAULT, Tolerance

HERMITICITY_RTOL = 1e-8


class EigenDecomposition(NamedTuple):
    eigenvalues: np.ndarray   # real, ascending
    eigenvectors: np.ndarray  # unit-norm columns, mutually orthonormal


def as_matrix(A) -> np.ndarray:
    """Coerce to a 2-d complex array (a vector becomes one column); raise
    InvalidMatrix for other numbers of axes or for non-finite entries."""
    M = np.asarray(A, dtype=complex)
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    if M.ndim != 2:
        raise InvalidMatrix(f"expected a matrix, got ndim={M.ndim}")
    if not (np.all(np.isfinite(M.real)) and np.all(np.isfinite(M.imag))):
        raise InvalidMatrix("matrix contains non-finite entries")
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

    Residual contract: ||A v_i - w_i v_i|| <= 1e-10 ||A||_F per pair,
    orthonormal eigenvectors.
    """
    M = require_hermitian(as_matrix(A), "hermitian_eig")
    w, V = np.linalg.eigh(M)
    return EigenDecomposition(w, V)


def rank_cutoff(M: np.ndarray, tol: Tolerance) -> float:
    """The one rank rule: a singular value or eigenvalue of M at or below
    this threshold (rank_eps relative to ||M||_F, absolute below 1) is zero."""
    return tol.rank_eps * max(1.0, frobenius(M))


def orthonormal_range(A, tol: Tolerance = DEFAULT) -> np.ndarray:
    """Orthonormal basis of the column space of A.

    The left singular vectors whose singular value exceeds rank_cutoff, so
    the column count is the numerical rank.  A zero (or empty) matrix yields
    a 0-column result.
    """
    M = as_matrix(A)
    if M.shape[1] == 0:
        return np.zeros((M.shape[0], 0), dtype=complex)
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    return U[:, s > rank_cutoff(M, tol)]


def kernel(A, tol: Tolerance = DEFAULT) -> np.ndarray:
    """Orthonormal basis of the near-null eigenspace of a Hermitian matrix.

    Columns span the eigenspace with |w| <= rank_cutoff(A).
    """
    M = as_matrix(A)
    w, V = hermitian_eig(M)
    return V[:, np.abs(w) <= rank_cutoff(M, tol)]
