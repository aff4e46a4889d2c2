"""Interval sublattices, the transpose partial order between them, and the
constraints modularity imposes on the non-additivity operators.

An interval [L, U] collects all subspaces between L and U.  Two intervals
are transposes when one arises from the other by joining/meeting with a
fixed subspace; modularity makes that correspondence a bijection, and
chains of transposes (projective intervals) telescope the non-additivity
operators.  The swept identities (the transpose round trip, spectral
constraint P1, the telescoping P2 and P3) are stated once, in
qlattice.sweeps; the interval lemmas checked only by the unit tests stay here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionViolated
from .lattice import LatticeOperator, Subspace, between, join, leq, meet
from .mobius import mobius
from .numerics import frobenius, hermitian_eig, rank_cutoff
from .rng import Xorshift64Star
from .tolerances import DEFAULT, Tolerance


class Interval:
    """Interval sublattice [lower, upper]; requires lower <= upper at tol,
    which is used for that check only and not kept."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: Subspace, upper: Subspace, tol: Tolerance = DEFAULT):
        if not leq(lower, upper, tol):
            raise PreconditionViolated("interval endpoints not nested")
        self.lower = lower
        self.upper = upper

    def contains(self, h: Subspace, tol: Tolerance = DEFAULT) -> bool:
        return leq(self.lower, h, tol) and leq(h, self.upper, tol)


def is_lower_transpose(A: Interval, B: Interval, tol: Tolerance = DEFAULT) -> bool:
    """True when A is the lower transpose of B.

    Requires B.upper = A.upper v B.lower and A.lower = A.upper ^ B.lower,
    as subspace identities.  Reflexive, antisymmetric and transitive.
    """
    return (B.upper.equiv(join(A.upper, B.lower, tol), tol)
            and A.lower.equiv(meet(A.upper, B.lower, tol), tol))


def transpose_pair(H1: Subspace, H2: Subspace,
                   tol: Tolerance = DEFAULT) -> tuple[Interval, Interval]:
    """The canonical transpose pair ([H1^H2, H1], [H2, H1vH2])."""
    A = Interval(meet(H1, H2, tol), H1, tol)
    B = Interval(H2, join(H1, H2, tol), tol)
    return A, B


def transpose_up(h: Subspace, H1: Subspace, H2: Subspace,
                 tol: Tolerance = DEFAULT) -> Subspace:
    """Forward bijection [H1^H2, H1] -> [H2, H1vH2]: h maps to h v H2."""
    if not (leq(meet(H1, H2, tol), h, tol) and leq(h, H1, tol)):
        raise PreconditionViolated("h is not inside [H1^H2, H1]")
    return join(h, H2, tol)


def transpose_down(hp: Subspace, H1: Subspace, H2: Subspace,
                   tol: Tolerance = DEFAULT) -> Subspace:
    """Inverse bijection [H2, H1vH2] -> [H1^H2, H1]: h' maps to h' ^ H1."""
    if not (leq(H2, hp, tol) and leq(hp, join(H1, H2, tol), tol)):
        raise PreconditionViolated("h' is not inside [H2, H1vH2]")
    return meet(hp, H1, tol)


def sandwich_residual(first: Interval, middle: Interval, last: Interval,
                      tol: Tolerance = DEFAULT) -> float:
    """For a transpose chain first <=tr middle <=tr last, the middle's lower
    endpoint is recovered as (middle.lower v first.upper) ^ last.lower;
    returns the Frobenius defect of that recovery.
    """
    if not is_lower_transpose(first, middle, tol):
        raise PreconditionViolated("first is not a lower transpose of middle")
    if not is_lower_transpose(middle, last, tol):
        raise PreconditionViolated("middle is not a lower transpose of last")
    rebuilt = meet(join(middle.lower, first.upper, tol), last.lower, tol)
    return frobenius(rebuilt.projector() - middle.lower.projector())


def membership_residuals(h: Subspace, H1: Subspace, H2: Subspace,
                         tol: Tolerance = DEFAULT) -> dict[str, float]:
    """The three conditions placing [h, h v H2] between the canonical
    transpose pair of (H1, H2), for h in [H1^H2, H1]:

      H2 ^ h = H1 ^ H2;  H1 ^ (h v H2) = h;  H1 v (h v H2) = H1 v H2.
    """
    hv = join(h, H2, tol)
    return {
        "meet_floor": frobenius(meet(H2, h, tol).projector()
                                - meet(H1, H2, tol).projector()),
        "pullback": frobenius(meet(H1, hv, tol).projector() - h.projector()),
        "join_ceiling": frobenius(join(H1, hv, tol).projector()
                                  - join(H1, H2, tol).projector()),
    }


def proj_map(interval: Interval) -> np.ndarray:
    """P(upper) - P(lower): the projector onto the gap of the interval."""
    return interval.upper.projector() - interval.lower.projector()


def psi_map(H1: Subspace, H2: Subspace, tol: Tolerance = DEFAULT) -> LatticeOperator:
    """Attach the non-additivity operator to the transpose pair of (H1, H2):
    proj_map([H2, H1vH2]) - proj_map([H1^H2, H1]).

    Equals mobius([H1, H2]) and is symmetric in its arguments; computed here
    through the interval route as an independent code path.
    """
    A, B = transpose_pair(H1, H2, tol)
    return LatticeOperator(proj_map(B) - proj_map(A), (H1, H2))


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalue constraints on a two-argument non-additivity operator."""

    eigenvalues: np.ndarray
    abs_sum: float
    zero_count: int
    required_zero_count: int


def spectral_p1(H1: Subspace, H2: Subspace, tol: Tolerance = DEFAULT) -> SpectralReport:
    """Spectral constraints on D(H1,H2): real spectrum summing to zero, with
    at least d - dim(H1 v H2) vanishing eigenvalues, |w| <= rank_cutoff(D)
    (everything orthogonal to the join is annihilated).  The verdict is
    sweeps.p1_residuals against the p1 tolerances of sweeps.REGISTRY."""
    D = mobius([H1, H2], tol).matrix
    w, _ = hermitian_eig(D)
    d = H1.dim_ambient
    join_dim = join(H1, H2, tol).rank
    return SpectralReport(
        eigenvalues=w,
        abs_sum=abs(float(np.sum(w))),
        zero_count=int(np.sum(np.abs(w) <= rank_cutoff(D, tol))),
        required_zero_count=d - join_dim,
    )


def random_sandwiched_member(H1: Subspace, H2: Subspace, rng: Xorshift64Star,
                             tol: Tolerance = DEFAULT) -> Subspace:
    """Random h in [H1 ^ H2, H1], built by explicit basis extension so the
    containments hold exactly (rejection sampling would almost never land on
    exact lattice relations in floating point)."""
    lower = meet(H1, H2, tol)
    r = lower.rank + rng.integer(0, H1.rank - lower.rank + 1)
    return between(lower, H1, r, rng, tol)
