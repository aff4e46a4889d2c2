"""Non-additivity (Moebius) operators over tuples of subspaces.

For n subspaces the operator is the alternating inclusion-exclusion sum of
projectors onto joins of every nonempty argument subset, plus a final
(-1)^n projector onto the meet of all arguments; the dual form swaps joins
and meets.  These vanish on Boolean (mutually commuting) families and
quantify how far quantum probabilities are from being additive.

Every lattice element comes from the pair primitives join and meet: the
subset table combines one argument at a time, and the final term is
lattice.meet_all (join_all for the dual), their pairwise fold.  Both exploit
the absorbing elements of the lattice: H v 1 = 1 and H ^ 0 = 0.  A subset one
of whose one-element-smaller subsets already joins to the full space (meets
to the zero space) reuses that entry instead of combining again, the
alternating sum adds each distinct entry's projector once with its summed
sign, and the fold stops at its own absorbing element.  No rank decision
changes: [U B] with U unitary has every singular value >= 1, and P1 + P2 - 2I
with a zero member has no eigenvalue above -1, so combining with an
absorbing element always returns it again.

The identities these operators satisfy (the commutator link, the triple sum
rule and its chain reductions) are stated once, in qlattice.sweeps.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument, TooManyArguments
from .lattice import (LatticeOperator, Subspace, _require_same_ambient, join,
                      join_all, meet, meet_all, orthocomplement)
from .numerics import frobenius
from .tolerances import DEFAULT, Tolerance

MAX_ARGUMENTS = 20


def _validated(subspaces) -> tuple[Subspace, ...]:
    subs = tuple(subspaces)
    if len(subs) < 2:
        raise InvalidArgument(f"need at least two subspaces, got {len(subs)}")
    if len(subs) > MAX_ARGUMENTS:
        raise TooManyArguments(f"{len(subs)} arguments; subset enumeration is 2^n")
    # absorption can skip the combine that would otherwise raise
    _require_same_ambient(*subs)
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


def _alternating_sum(subs, combine, absorbing, final, tol) -> np.ndarray:
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
    M += (-1) ** n * final(subs, tol).projector()
    return M


def mobius(subspaces, tol: Tolerance = DEFAULT) -> LatticeOperator:
    """Non-additivity operator: joins over subsets, meet term at the end.

    For two arguments this is
    P(H1 v H2) + P(H1 ^ H2) - P(H1) - P(H2).
    """
    subs = _validated(subspaces)
    M = _alternating_sum(subs, join, Subspace.is_full, meet_all, tol)
    return LatticeOperator(M, subs)


def mobius_dual(subspaces, tol: Tolerance = DEFAULT) -> LatticeOperator:
    """Dual operator: meets over subsets, join term at the end."""
    subs = _validated(subspaces)
    M = _alternating_sum(subs, meet, Subspace.is_zero, join_all, tol)
    return LatticeOperator(M, subs)


def perp_negation_residual(H1: Subspace, H2: Subspace,
                           tol: Tolerance = DEFAULT) -> float:
    """Residual of D(H1-perp, H2-perp) = -D(H1, H2)."""
    D = mobius([H1, H2], tol).matrix
    Dp = mobius([orthocomplement(H1, tol), orthocomplement(H2, tol)], tol).matrix
    return frobenius(Dp + D)
