"""Non-additivity (Moebius) operators over tuples of subspaces.

For n subspaces the operator is the alternating inclusion-exclusion sum of
projectors onto joins of every nonempty argument subset, plus a final
(-1)^n projector onto the meet of all arguments; the dual form swaps joins
and meets.  These vanish on Boolean (mutually commuting) families and
quantify how far quantum probabilities are from being additive.

The subset table exploits the absorbing elements of the lattice: H v 1 = 1
and H ^ 0 = 0.  A subset one of whose one-element-smaller subsets already
joins to the full space (meets to the zero space) reuses that entry instead
of combining again, the alternating sum adds each distinct entry's projector
once with its summed sign, and the final chain stops at its own absorbing
element.  No rank decision changes: [U B] with U unitary has every singular
value >= 1, and sum(P_i) - kI with a zero member has no eigenvalue above -1,
so combining with an absorbing element always returns it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, TooManyArguments
from .lattice import Subspace, join, leq, meet, orthocomplement
from .numerics import frobenius
from .tolerances import Tolerance, default_tolerance

MAX_ARGUMENTS = 20


@dataclass(frozen=True)
class MobiusOperator:
    """Hermitian operator measuring non-additivity over its arguments."""

    matrix: np.ndarray
    arguments: tuple[Subspace, ...]
    dual_flag: bool = False
    trace: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "trace", float(np.trace(self.matrix).real))
        self.matrix.setflags(write=False)


def _validated(subspaces) -> tuple[Subspace, ...]:
    subs = tuple(subspaces)
    if len(subs) < 2:
        raise ValueError("need at least two subspaces")
    if len(subs) > MAX_ARGUMENTS:
        raise TooManyArguments(f"{len(subs)} arguments; subset enumeration is 2^n")
    dims = {H.dim_ambient for H in subs}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed ambient dimensions {sorted(dims)}")
    return subs


def _subset_table(subs, combine, absorbing, tol):
    """Subspace for every nonempty bitmask, built incrementally and memoized.

    A subset with an absorbing entry among any of its one-element-smaller
    subsets (not only the one without its lowest bit, so that the saving does
    not depend on argument order) reuses that entry without combining.
    """
    table: dict[int, Subspace] = {}
    for mask in range(1, 1 << len(subs)):
        low = mask & (-mask)
        idx = low.bit_length() - 1
        rest = mask ^ low
        if rest == 0:
            table[mask] = subs[idx]
            continue
        bits = mask
        while bits:
            bit = bits & (-bits)
            smaller = table[mask ^ bit]
            if absorbing(smaller):
                table[mask] = smaller
                break
            bits ^= bit
        else:
            table[mask] = combine(table[rest], subs[idx], tol)
    return table


def _alternating_sum(subs, combine, absorbing, final_combine, final_absorbing,
                     tol) -> np.ndarray:
    n = len(subs)
    d = subs[0].dim_ambient
    # one summed sign per distinct entry: absorbed subsets share an object
    weights: dict[int, list] = {}
    for mask, H in _subset_table(subs, combine, absorbing, tol).items():
        weights.setdefault(id(H), [H, 0])[1] += (-1) ** (n - mask.bit_count())
    M = np.zeros((d, d), dtype=complex)
    for H, weight in weights.values():
        if weight:
            M += weight * H.projector()
    # final term uses the opposite lattice operation over all arguments
    acc = subs[0]
    for H in subs[1:]:
        if final_absorbing(acc):
            break
        acc = final_combine(acc, H, tol)
    M += (-1) ** n * acc.projector()
    return M


def mobius(subspaces, tol: Tolerance | None = None) -> MobiusOperator:
    """Non-additivity operator: joins over subsets, meet term at the end.

    For two arguments this is
    P(H1 v H2) + P(H1 ^ H2) - P(H1) - P(H2).
    """
    subs = _validated(subspaces)
    tol = tol or default_tolerance()
    M = _alternating_sum(subs, join, Subspace.is_full, meet, Subspace.is_zero, tol)
    return MobiusOperator((M + M.conj().T) / 2.0, subs, dual_flag=False)


def mobius_dual(subspaces, tol: Tolerance | None = None) -> MobiusOperator:
    """Dual operator: meets over subsets, join term at the end."""
    subs = _validated(subspaces)
    tol = tol or default_tolerance()
    M = _alternating_sum(subs, meet, Subspace.is_zero, join, Subspace.is_full, tol)
    return MobiusOperator((M + M.conj().T) / 2.0, subs, dual_flag=True)


def commutator_identity_residual(H1: Subspace, H2: Subspace,
                                 tol: Tolerance | None = None) -> float:
    """Frobenius residual of [P1, P2] = D(H1,H2) (P1 - P2).

    Links the projector commutator to the two-argument non-additivity
    operator; zero up to round-off for every pair.
    """
    tol = tol or default_tolerance()
    P1, P2 = H1.projector(), H2.projector()
    D = mobius([H1, H2], tol).matrix
    return frobenius(P1 @ P2 - P2 @ P1 - D @ (P1 - P2))


def triple_identity_residuals(H1: Subspace, H2: Subspace, H3: Subspace,
                              tol: Tolerance | None = None) -> dict[str, float]:
    """Residuals of the three-argument operator identities.

    Returns Frobenius residuals of:
      sum_rule          D(1,2,3) + Ddual(1,2,3) + D(1,2) + D(1,3) + D(2,3) = 0
      sandwich          P1 P3 P2 - P(H1^H2^H3) = P1 D(1,2,3) P2
      double_commutator [[P1,P3],P2] = (P1-P3) D P2 + P2 D (P1-P3)
    and, when H1 <= H2 holds, the chain reductions
      chain_direct      D(1,2,3) + D(1,3) = 0
      chain_dual        Ddual(1,2,3) + D(2,3) = 0
    """
    tol = tol or default_tolerance()
    P1, P2, P3 = H1.projector(), H2.projector(), H3.projector()
    D = mobius([H1, H2, H3], tol).matrix
    Dd = mobius_dual([H1, H2, H3], tol).matrix
    D12 = mobius([H1, H2], tol).matrix
    D13 = mobius([H1, H3], tol).matrix
    D23 = mobius([H2, H3], tol).matrix

    out = {
        "sum_rule": frobenius(D + Dd + D12 + D13 + D23),
        "sandwich": frobenius(
            P1 @ P3 @ P2 - meet(meet(H1, H2, tol), H3, tol).projector() - P1 @ D @ P2),
    }
    comm13 = P1 @ P3 - P3 @ P1
    out["double_commutator"] = frobenius(
        (comm13 @ P2 - P2 @ comm13) - ((P1 - P3) @ D @ P2 + P2 @ D @ (P1 - P3)))
    if leq(H1, H2, tol):
        out["chain_direct"] = frobenius(D + D13)
        out["chain_dual"] = frobenius(Dd + D23)
    return out


def perp_negation_residual(H1: Subspace, H2: Subspace,
                           tol: Tolerance | None = None) -> float:
    """Residual of D(H1-perp, H2-perp) = -D(H1, H2)."""
    tol = tol or default_tolerance()
    D = mobius([H1, H2], tol).matrix
    Dp = mobius([orthocomplement(H1, tol), orthocomplement(H2, tol)], tol).matrix
    return frobenius(Dp + D)
