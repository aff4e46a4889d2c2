"""Interval sublattices, the transpose partial order between them, and the
constraints modularity imposes on the non-additivity operators.

An interval [L, U] collects all subspaces between L and U.  Two intervals
are transposes when one arises from the other by joining/meeting with a
fixed subspace; modularity makes that correspondence a bijection, and
chains of transposes (projective intervals) telescope the non-additivity
operators in a way checked here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, PreconditionViolated
from .lattice import Subspace, between, join, leq, meet
from .mobius import MobiusOperator, mobius
from .numerics import frobenius, hermitian_eig, rank_cutoff
from .rng import Xorshift64Star
from .tolerances import Tolerance, default_tolerance


@dataclass(frozen=True)
class Interval:
    """Interval sublattice [lower, upper]; requires lower <= upper."""

    lower: Subspace
    upper: Subspace

    def __post_init__(self):
        if self.lower.dim_ambient != self.upper.dim_ambient:
            raise DimensionMismatch("interval endpoints in different dimensions")
        if not leq(self.lower, self.upper):
            raise PreconditionViolated("interval endpoints not nested")

    def contains(self, h: Subspace, tol: Tolerance | None = None) -> bool:
        return leq(self.lower, h, tol) and leq(h, self.upper, tol)


def is_lower_transpose(A: Interval, B: Interval, tol: Tolerance | None = None) -> bool:
    """True when A is the lower transpose of B.

    Requires B.upper = A.upper v B.lower and A.lower = A.upper ^ B.lower,
    as subspace identities.  Reflexive, antisymmetric and transitive.
    """
    tol = tol or default_tolerance()
    if A.lower.dim_ambient != B.lower.dim_ambient:
        raise DimensionMismatch("intervals in different dimensions")
    return (B.upper.equiv(join(A.upper, B.lower, tol), tol)
            and A.lower.equiv(meet(A.upper, B.lower, tol), tol))


def transpose_pair(H1: Subspace, H2: Subspace,
                   tol: Tolerance | None = None) -> tuple[Interval, Interval]:
    """The canonical transpose pair ([H1^H2, H1], [H2, H1vH2])."""
    tol = tol or default_tolerance()
    A = Interval(meet(H1, H2, tol), H1)
    B = Interval(H2, join(H1, H2, tol))
    return A, B


def transpose_up(h: Subspace, H1: Subspace, H2: Subspace,
                 tol: Tolerance | None = None) -> Subspace:
    """Forward bijection [H1^H2, H1] -> [H2, H1vH2]: h maps to h v H2."""
    tol = tol or default_tolerance()
    if not (leq(meet(H1, H2, tol), h, tol) and leq(h, H1, tol)):
        raise PreconditionViolated("h is not inside [H1^H2, H1]")
    return join(h, H2, tol)


def transpose_down(hp: Subspace, H1: Subspace, H2: Subspace,
                   tol: Tolerance | None = None) -> Subspace:
    """Inverse bijection [H2, H1vH2] -> [H1^H2, H1]: h' maps to h' ^ H1."""
    tol = tol or default_tolerance()
    if not (leq(H2, hp, tol) and leq(hp, join(H1, H2, tol), tol)):
        raise PreconditionViolated("h' is not inside [H2, H1vH2]")
    return meet(hp, H1, tol)


def transpose_roundtrip_residual(h: Subspace, H1: Subspace, H2: Subspace,
                                 tol: Tolerance | None = None) -> float:
    """||P(h) - P((h v H2) ^ H1)|| for h in [H1^H2, H1]; zero by modularity."""
    tol = tol or default_tolerance()
    back = transpose_down(transpose_up(h, H1, H2, tol), H1, H2, tol)
    return frobenius(back.projector() - h.projector())


def sandwich_residual(first: Interval, middle: Interval, last: Interval,
                      tol: Tolerance | None = None) -> float:
    """For a transpose chain first <=tr middle <=tr last, the middle's lower
    endpoint is recovered as (middle.lower v first.upper) ^ last.lower;
    returns the Frobenius defect of that recovery.
    """
    tol = tol or default_tolerance()
    if not is_lower_transpose(first, middle, tol):
        raise PreconditionViolated("first is not a lower transpose of middle")
    if not is_lower_transpose(middle, last, tol):
        raise PreconditionViolated("middle is not a lower transpose of last")
    rebuilt = meet(join(middle.lower, first.upper, tol), last.lower, tol)
    return frobenius(rebuilt.projector() - middle.lower.projector())


def membership_residuals(h: Subspace, H1: Subspace, H2: Subspace,
                         tol: Tolerance | None = None) -> dict[str, float]:
    """The three conditions placing [h, h v H2] between the canonical
    transpose pair of (H1, H2), for h in [H1^H2, H1]:

      H2 ^ h = H1 ^ H2;  H1 ^ (h v H2) = h;  H1 v (h v H2) = H1 v H2.
    """
    tol = tol or default_tolerance()
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


def psi_map(H1: Subspace, H2: Subspace, tol: Tolerance | None = None) -> MobiusOperator:
    """Attach the non-additivity operator to the transpose pair of (H1, H2):
    proj_map([H2, H1vH2]) - proj_map([H1^H2, H1]).

    Equals mobius([H1, H2]) and is symmetric in its arguments; computed here
    through the interval route as an independent code path.
    """
    tol = tol or default_tolerance()
    A, B = transpose_pair(H1, H2, tol)
    M = proj_map(B) - proj_map(A)
    return MobiusOperator((M + M.conj().T) / 2.0, (H1, H2), dual_flag=False)


def p2_residuals(H1: Subspace, H2: Subspace, h: Subspace,
                 h_second: Subspace | None = None,
                 tol: Tolerance | None = None) -> dict[str, float]:
    """Telescoping of D over a sandwiched interval.

    For h in [H1^H2, H1]:  D(H2, h) + D(h v H2, H1) = D(H2, H1).
    With a second member h' the two telescoped sums must also agree with
    each other.
    """
    tol = tol or default_tolerance()
    if not Interval(meet(H1, H2, tol), H1).contains(h, tol):
        raise PreconditionViolated("h outside [H1^H2, H1]")
    total = mobius([H2, H1], tol).matrix

    def telescoped(member: Subspace) -> np.ndarray:
        return (mobius([H2, member], tol).matrix
                + mobius([join(member, H2, tol), H1], tol).matrix)

    out = {"telescope": frobenius(telescoped(h) - total)}
    if h_second is not None:
        if not Interval(meet(H1, H2, tol), H1).contains(h_second, tol):
            raise PreconditionViolated("second member outside [H1^H2, H1]")
        out["telescope_second"] = frobenius(telescoped(h_second) - total)
        out["members_agree"] = frobenius(telescoped(h) - telescoped(h_second))
    return out


def projective_triple(H1p: Subspace, H2: Subspace, H3p: Subspace,
                      tol: Tolerance | None = None):
    """Derive the projective configuration from its free parameters.

    Given H1' and H2, set H2' = H1' v H2 and H1 = H1' ^ H2, so that
    [H1,H1'] <=tr [H2,H2'].  H3' must satisfy H3' <= H2' and H3' v H2 = H2';
    then H3 = H3' ^ H2 and [H3,H3'] <=tr [H2,H2'] as well, making [H1,H1']
    and [H3,H3'] projective.
    """
    tol = tol or default_tolerance()
    H2p = join(H1p, H2, tol)
    H1 = meet(H1p, H2, tol)
    if not leq(H3p, H2p, tol):
        raise PreconditionViolated("H3' not contained in H1' v H2")
    if not join(H3p, H2, tol).equiv(H2p, tol):
        raise PreconditionViolated("H3' v H2 does not reach H1' v H2")
    H3 = meet(H3p, H2, tol)
    return H1, H2p, H3


def p3_residuals(H1p: Subspace, H2: Subspace, H3p: Subspace,
                 h: Subspace | None = None,
                 tol: Tolerance | None = None) -> dict[str, float]:
    """Identities relating projective intervals [H1,H1'] and [H3,H3'].

    endpoint:  P(H3') - P(H3) - P(H1') + P(H1) = D(H1',H2) - D(H2,H3')
    member  :  with h in [H1,H1'] and h' = (h v H2) ^ H3',
               P(h') - P(H3) - P(h) + P(H1) = D(h,H2) - D(H2,h')
    roundtrip: (h' v H2) ^ H1' recovers h.
    """
    tol = tol or default_tolerance()
    H1, H2p, H3 = projective_triple(H1p, H2, H3p, tol)
    lhs = H3p.projector() - H3.projector() - H1p.projector() + H1.projector()
    rhs = mobius([H1p, H2], tol).matrix - mobius([H2, H3p], tol).matrix
    out = {"endpoint": frobenius(lhs - rhs)}
    if h is not None:
        if not Interval(H1, H1p).contains(h, tol):
            raise PreconditionViolated("h outside [H1, H1']")
        hp = meet(join(h, H2, tol), H3p, tol)
        lhs2 = hp.projector() - H3.projector() - h.projector() + H1.projector()
        rhs2 = mobius([h, H2], tol).matrix - mobius([H2, hp], tol).matrix
        out["member"] = frobenius(lhs2 - rhs2)
        back = meet(join(hp, H2, tol), H1p, tol)
        out["roundtrip"] = frobenius(back.projector() - h.projector())
    return out


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalue constraints on a two-argument non-additivity operator."""

    eigenvalues: np.ndarray
    abs_sum: float
    zero_count: int
    required_zero_count: int

    @property
    def sum_ok(self) -> bool:
        return self.abs_sum <= 1e-8

    @property
    def multiplicity_ok(self) -> bool:
        return self.zero_count >= self.required_zero_count


def spectral_p1(H1: Subspace, H2: Subspace, tol: Tolerance | None = None) -> SpectralReport:
    """Spectral constraints on D(H1,H2): real spectrum summing to zero, with
    at least d - dim(H1 v H2) vanishing eigenvalues, |w| <= rank_cutoff(D)
    (everything orthogonal to the join is annihilated)."""
    tol = tol or default_tolerance()
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
                             tol: Tolerance | None = None) -> Subspace:
    """Random h in [H1 ^ H2, H1], built by explicit basis extension so the
    containments hold exactly (rejection sampling would almost never land on
    exact lattice relations in floating point)."""
    tol = tol or default_tolerance()
    lower = meet(H1, H2, tol)
    r = lower.rank + rng.integer(0, H1.rank - lower.rank + 1)
    return between(lower, H1, r, rng, tol)
