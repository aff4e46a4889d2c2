"""Projectors measuring the failure of distributivity and of the law of
total probability.

In a distributive lattice both defect projectors vanish identically; on
subspaces they vanish exactly when enough of the arguments commute, and
their size is tied to the non-additivity operators through exact
decomposition identities (the varpi links and the pi decomposition), which
are stated once, in qlattice.sweeps.  Arguments in different ambient
dimensions raise DimensionMismatch from the first join or meet.
"""

from __future__ import annotations

from .lattice import LatticeOperator, Subspace, join, meet, orthocomplement
from .numerics import frobenius
from .tolerances import DEFAULT, Tolerance


def varpi1(H1: Subspace, H2: Subspace, H0: Subspace,
           tol: Tolerance = DEFAULT) -> LatticeOperator:
    """First distributivity defect:
    P[(H1 v H0) ^ (H2 v H0)] - P[(H1 ^ H2) v H0].

    The two subspaces are nested (that is the distributive inequality), so
    the difference is a projector; it vanishes iff equality holds.
    Symmetric under swapping H1 and H2.
    """
    upper = meet(join(H1, H0, tol), join(H2, H0, tol), tol)
    lower = join(meet(H1, H2, tol), H0, tol)
    return LatticeOperator(upper.projector() - lower.projector(), (H1, H2, H0))


def varpi2(H1: Subspace, H2: Subspace, H0: Subspace,
           tol: Tolerance = DEFAULT) -> LatticeOperator:
    """Second distributivity defect:
    P[(H1 v H2) ^ H0] - P[(H1 ^ H0) v (H2 ^ H0)].
    """
    upper = meet(join(H1, H2, tol), H0, tol)
    lower = join(meet(H1, H0, tol), meet(H2, H0, tol), tol)
    return LatticeOperator(upper.projector() - lower.projector(), (H1, H2, H0))


def pi_deviation(H0: Subspace, H1: Subspace,
                 tol: Tolerance = DEFAULT) -> LatticeOperator:
    """Total-probability deviation:
    P(H0) - P(H1 ^ H0) - P(H1-perp ^ H0).

    Zero exactly when H1 and H0 commute, i.e. when conditioning H0 on the
    binary alternative (H1, H1-perp) loses nothing.
    """
    H1p = orthocomplement(H1, tol)
    M = (H0.projector()
         - meet(H1, H0, tol).projector()
         - meet(H1p, H0, tol).projector())
    return LatticeOperator(M, (H0, H1))


def binary_defect_residuals(H1: Subspace, H0: Subspace,
                            tol: Tolerance = DEFAULT) -> dict[str, float]:
    """Specialized identities for the pair (H1, H1-perp | H0).

    nesting_low / nesting_up: the two containments
      (H1^H0) v (H1p^H0)  <=  H0  <=  (H1vH0) ^ (H1pvH0)
    varpi1_reduced: varpi1(H1, H1p | H0) = P[(H1vH0)^(H1pvH0)] - P(H0)
    varpi2_reduced: varpi2(H1, H1p | H0) = P(H0) - P[(H1^H0)v(H1p^H0)]
    """
    H1p = orthocomplement(H1, tol)
    P0 = H0.projector()
    low = join(meet(H1, H0, tol), meet(H1p, H0, tol), tol).projector()
    up = meet(join(H1, H0, tol), join(H1p, H0, tol), tol).projector()
    return {
        "nesting_low": frobenius(P0 @ low - low),
        "nesting_up": frobenius(up @ P0 - P0),
        "varpi1_reduced": frobenius(varpi1(H1, H1p, H0, tol).matrix - (up - P0)),
        "varpi2_reduced": frobenius(varpi2(H1, H1p, H0, tol).matrix - (P0 - low)),
    }
