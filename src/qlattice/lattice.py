"""The modular orthocomplemented lattice of subspaces of a d-dimensional
complex Hilbert space.

Subspaces are immutable values carrying an orthonormal basis; all lattice
operations (meet, join, orthocomplement, partial order, commutation) act on
their projectors, so results never depend on the particular basis chosen.
Every operator built from subspaces (the Moebius operators, the
distributivity defects, the total-probability deviation) is a
LatticeOperator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .numerics import as_matrix, frobenius, kernel, orthonormal_range
from .rng import Xorshift64Star
from .tolerances import DEFAULT, Tolerance


class Subspace:
    """A subspace of H(d), held as its orthonormal basis: a d x r matrix with
    orthonormal columns.

    d is the basis's row count and r its rank; a basis with no columns
    (r = 0) is the zero subspace, r = d the full space.
    """

    __slots__ = ("basis", "dim_ambient", "_projector")

    def __init__(self, basis):
        B = as_matrix(basis).copy()  # private copy; instances are immutable
        r = B.shape[1]
        # the Gram check also rejects more columns than rows; it is skipped
        # for the empty basis, which is orthonormal and which meets return often
        if r:
            gram_defect = frobenius(B.conj().T @ B - np.eye(r))
            if gram_defect > 1e-10:
                raise ValueError(f"basis columns not orthonormal (defect {gram_defect:.3e}); "
                                 "use Subspace.from_vectors to orthonormalize")
        B.setflags(write=False)
        self.basis = B
        self.dim_ambient = B.shape[0]
        self._projector = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_vectors(cls, vectors, tol: Tolerance = DEFAULT) -> "Subspace":
        """Span of the given (not necessarily independent) column vectors."""
        return cls(orthonormal_range(vectors, tol))

    @classmethod
    def zero(cls, d: int) -> "Subspace":
        return cls(np.zeros((d, 0), dtype=complex))

    @classmethod
    def full(cls, d: int) -> "Subspace":
        return cls(np.eye(d, dtype=complex))

    @classmethod
    def line(cls, vector) -> "Subspace":
        """One-dimensional span of a single vector."""
        v = np.asarray(vector, dtype=complex).reshape(-1, 1)
        return cls.from_vectors(v)

    # -- basic queries -----------------------------------------------------

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """The d x d orthogonal projector onto this subspace (cached)."""
        if self._projector is None:
            P = self.basis @ self.basis.conj().T
            P.setflags(write=False)
            self._projector = P
        return self._projector

    def is_zero(self) -> bool:
        return self.rank == 0

    def is_full(self) -> bool:
        return self.rank == self.dim_ambient

    def __repr__(self):
        return f"<Subspace rank {self.rank} of H({self.dim_ambient})>"

    # -- lattice operations (method forms) ---------------------------------

    def perp(self, tol: Tolerance = DEFAULT) -> "Subspace":
        return orthocomplement(self, tol)

    def equiv(self, other: "Subspace", tol: Tolerance = DEFAULT) -> bool:
        """Equality as subspaces: mutual containment of projectors."""
        return leq(self, other, tol) and leq(other, self, tol)


@dataclass(frozen=True, init=False)
class LatticeOperator:
    """Hermitian operator built from its argument subspaces."""

    matrix: np.ndarray  # the Hermitian part of the raw matrix, read-only
    arguments: tuple[Subspace, ...]
    trace: float

    def __init__(self, M: np.ndarray, arguments):
        H = (M + M.conj().T) / 2.0
        H.setflags(write=False)
        object.__setattr__(self, "matrix", H)
        object.__setattr__(self, "arguments", tuple(arguments))
        object.__setattr__(self, "trace", float(np.trace(H).real))


def _require_same_ambient(*subspaces: Subspace) -> int:
    dims = {H.dim_ambient for H in subspaces}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed ambient dimensions {sorted(dims)}")
    return dims.pop()


def join(H1: Subspace, H2: Subspace, tol: Tolerance = DEFAULT) -> Subspace:
    """Smallest subspace containing both: the span of the union, thresholded
    by the singular values of the stacked bases."""
    _require_same_ambient(H1, H2)
    return Subspace(orthonormal_range(np.hstack([H1.basis, H2.basis]), tol))


def meet(H1: Subspace, H2: Subspace, tol: Tolerance = DEFAULT) -> Subspace:
    """Intersection, computed as the eigenvalue-2 eigenspace of P1 + P2.

    Equivalently the kernel of P1 + P2 - 2I; symmetric in the arguments and
    thresholded spectrally.
    """
    d = _require_same_ambient(H1, H2)
    return Subspace(kernel(H1.projector() + H2.projector() - 2 * np.eye(d), tol))


def _fold(combine, absorbing, subspaces, tol: Tolerance) -> Subspace:
    """Pairwise fold of a lattice operation, left to right, that stops once
    the accumulator is the operation's absorbing element."""
    subs = list(subspaces)
    _require_same_ambient(*subs)
    acc = subs[0]
    for H in subs[1:]:
        if absorbing(acc):
            break
        acc = combine(acc, H, tol)
    return acc


def join_all(subspaces, tol: Tolerance = DEFAULT) -> Subspace:
    """Span of the union: pairwise joins, stopping at the full space."""
    return _fold(join, Subspace.is_full, subspaces, tol)


def meet_all(subspaces, tol: Tolerance = DEFAULT) -> Subspace:
    """Common intersection: pairwise meets, stopping at the zero space."""
    return _fold(meet, Subspace.is_zero, subspaces, tol)


def orthocomplement(H: Subspace, tol: Tolerance = DEFAULT) -> Subspace:
    """All vectors orthogonal to H; the lattice negation."""
    return Subspace(kernel(H.projector(), tol))


def leq(H1: Subspace, H2: Subspace, tol: Tolerance = DEFAULT) -> bool:
    """Partial order: H1 contained in H2, tested as ||P2 P1 - P1|| small."""
    _require_same_ambient(H1, H2)
    P1, P2 = H1.projector(), H2.projector()
    return frobenius(P2 @ P1 - P1) <= tol.identity_eps


def commutes(H1: Subspace, H2: Subspace, tol: Tolerance = DEFAULT) -> bool:
    """Lattice-theoretic commutation of two subspaces, tested as a vanishing
    projector commutator ||P1 P2 - P2 P1|| (equivalent in exact arithmetic
    to H1 = (H1 meet H2) join (H1 meet H2-perp))."""
    _require_same_ambient(H1, H2)
    P1, P2 = H1.projector(), H2.projector()
    return frobenius(P1 @ P2 - P2 @ P1) <= tol.identity_eps


def random_subspace(d: int, r: int, rng: Xorshift64Star,
                    tol: Tolerance = DEFAULT) -> Subspace:
    """Haar-like random r-dimensional subspace of H(d).

    Columns of a standard complex Gaussian matrix are orthonormalized; the
    resulting distribution is invariant under unitaries.
    """
    if not (0 <= r <= d):
        raise ValueError(f"rank {r} out of range for dimension {d}")
    return Subspace(orthonormal_range(rng.complex_gaussian_matrix(d, r), tol))


def random_nested_pair(d: int, r_small: int, r_big: int, rng: Xorshift64Star,
                       tol: Tolerance = DEFAULT) -> tuple[Subspace, Subspace]:
    """Random pair H_small <= H_big with the given ranks, nested by construction."""
    if not (0 <= r_small <= r_big <= d):
        raise ValueError(f"bad ranks {r_small}, {r_big} for dimension {d}")
    big = random_subspace(d, r_big, rng, tol)
    small = inside(big, r_small, rng, tol)
    return small, big


def inside(H: Subspace, r: int, rng: Xorshift64Star,
           tol: Tolerance = DEFAULT) -> Subspace:
    """Random r-dimensional subspace of H (r <= rank of H)."""
    if not (0 <= r <= H.rank):
        raise ValueError(f"rank {r} does not fit inside rank {H.rank}")
    mix = rng.complex_gaussian_matrix(H.rank, r)
    return Subspace(orthonormal_range(H.basis @ mix, tol))


def between(lower: Subspace, upper: Subspace, r: int, rng: Xorshift64Star,
            tol: Tolerance = DEFAULT) -> Subspace:
    """Random subspace h with lower <= h <= upper and rank r.

    Built by extending the lower basis with a random slice of the part of
    upper orthogonal to lower, so both containments hold exactly.
    """
    _require_same_ambient(lower, upper)
    if not (lower.rank <= r <= upper.rank):
        raise ValueError(f"rank {r} outside [{lower.rank}, {upper.rank}]")
    complement = orthonormal_range(
        (np.eye(lower.dim_ambient) - lower.projector()) @ upper.basis, tol)
    mix = rng.complex_gaussian_matrix(complement.shape[1], r - lower.rank)
    ext = orthonormal_range(complement @ mix, tol)
    return Subspace(np.hstack([lower.basis, ext]))
