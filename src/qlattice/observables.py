"""Expectation values and standard deviations of Hermitian operators
against density matrices.  The moment relations tying the pair
non-additivity operator to its constituent projectors are stated once, in
qlattice.sweeps.
"""

from __future__ import annotations

import numpy as np

from .errors import (DimensionMismatch, InvalidMatrix, NegativeVariance,
                     NonHermitianInput)
from .lattice import Subspace
from .mobius import mobius
from .numerics import as_matrix, hermitian_eig, require_hermitian
from .rng import Xorshift64Star
from .tolerances import DEFAULT, Tolerance


class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace operator."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        M = require_hermitian(as_matrix(matrix), "density matrix")
        tr = np.trace(M).real
        if abs(tr - 1.0) > 1e-9:
            raise InvalidMatrix(f"density matrix trace {tr} != 1")
        w, _ = hermitian_eig(M)
        if w[0] < -1e-10:
            raise InvalidMatrix(f"density matrix has negative eigenvalue {w[0]:.3e}")
        M.setflags(write=False)
        self.matrix = M

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def maximally_mixed(cls, d: int) -> "DensityMatrix":
        return cls(np.eye(d) / d)

    @classmethod
    def pure(cls, vector) -> "DensityMatrix":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    def entropy(self) -> float:
        """Von Neumann entropy -Tr(rho log rho), natural logarithm."""
        w, _ = hermitian_eig(self.matrix)
        w = w[w > 1e-12]
        return float(-np.sum(w * np.log(w)))


def random_density(d: int, rng: Xorshift64Star) -> DensityMatrix:
    """Full-rank random state G G-dagger / Tr, G complex Gaussian."""
    G = rng.complex_gaussian_matrix(d, d)
    M = G @ G.conj().T
    return DensityMatrix(M / np.trace(M).real)


def _check_pair(rho: DensityMatrix, Theta: np.ndarray) -> np.ndarray:
    T = require_hermitian(as_matrix(Theta), "observable")
    if T.shape[0] != rho.dim:
        raise DimensionMismatch(f"observable is {T.shape[0]}x{T.shape[0]}, state is {rho.dim}-dimensional")
    return T


def expectation(rho: DensityMatrix, Theta) -> float:
    """Mean value Tr(rho Theta) of a Hermitian observable."""
    T = _check_pair(rho, Theta)
    val = np.trace(rho.matrix @ T)
    if abs(val.imag) > 1e-10:
        raise NonHermitianInput(f"expectation has imaginary part {val.imag:.3e}")
    return float(val.real)


def stddev(rho: DensityMatrix, Theta) -> float:
    """Standard deviation sqrt(Tr(Theta^2 rho) - Tr(Theta rho)^2)."""
    T = _check_pair(rho, Theta)
    variance = np.trace(T @ T @ rho.matrix).real - expectation(rho, T) ** 2
    if variance < -1e-8:
        raise NegativeVariance(f"variance {variance:.3e}")
    return float(np.sqrt(max(variance, 0.0)))


def ds_classify(rho: DensityMatrix, H1: Subspace, H2: Subspace,
                tol: Tolerance = DEFAULT) -> str:
    """Classify the pair's probabilities as Dempster-Shafer lower or upper.

    The sign of Tr(rho D(H1,H2)) decides: positive means the projector
    probabilities behave as upper (plausibility-like) values, negative as
    lower (belief-like) values, and zero as ordinarily additive.
    """
    val = expectation(rho, mobius([H1, H2], tol).matrix)
    if val > tol.identity_eps:
        return "upper"
    if val < -tol.identity_eps:
        return "lower"
    return "additive"


def projector_moment_residual(rho: DensityMatrix, P) -> float:
    """Residual of Var[P] = E[P] - E[P]^2, valid for any projector P."""
    e = expectation(rho, P)
    return abs(stddev(rho, P) ** 2 - (e - e * e))
