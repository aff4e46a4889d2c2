"""Numerical thresholds shared by every module.  Library functions default
to DEFAULT; only the qlattice command applies the QLATTICE_EPS override."""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import InvalidArgument, ParseError


@dataclass(frozen=True)
class Tolerance:
    """Thresholds for rank decisions and operator-identity residuals.

    rank_eps is read only by numerics.rank_cutoff, which makes every rank
    decision (which singular values and eigenvalues count as zero), the
    coherent aggregate's dependence test included.  identity_eps gates
    Frobenius residuals of operator identities and the boolean lattice
    predicates leq and commutes.
    """

    rank_eps: float = 1e-9
    identity_eps: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.rank_eps < 1.0):
            raise InvalidArgument(f"rank_eps out of range: {self.rank_eps}")
        if not (0.0 < self.identity_eps < 1.0):
            raise InvalidArgument(f"identity_eps out of range: {self.identity_eps}")


DEFAULT = Tolerance()

_ENV_VAR = "QLATTICE_EPS"


def default_tolerance() -> Tolerance:
    """DEFAULT, with identity_eps taken from QLATTICE_EPS if that is set."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT
    try:
        eps = float(raw)
    except ValueError as exc:
        raise ParseError(f"{_ENV_VAR} must be a float, got {raw!r}") from exc
    return Tolerance(rank_eps=DEFAULT.rank_eps, identity_eps=eps)
