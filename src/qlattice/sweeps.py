"""The swept operator identities, each defined once, and the randomized
sweeps that re-check them on freshly drawn subspaces, deterministically per
seed.

Each identity is a function of its concrete inputs returning named
residuals, zero up to round-off; tests and demos call them on chosen inputs.
REGISTRY pairs each with a sampler that draws its inputs from a substream of
the pinned generator; a sweep records the worst residual seen per name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributivity import pi_deviation, varpi1, varpi2
from .errors import InvalidConfig, PreconditionViolated, UnknownCheck
from .lattice import (Subspace, inside, join, leq, meet, orthocomplement,
                      random_nested_pair, random_subspace)
from .mobius import mobius, mobius_dual
from .modular import (Interval, random_sandwiched_member, spectral_p1,
                      transpose_down, transpose_up)
from .numerics import frobenius
from .observables import DensityMatrix, expectation, random_density
from .rng import Xorshift64Star, mix_stream
from .tolerances import DEFAULT, Tolerance


# -- identities ---------------------------------------------------------------

def commutator_identity_residuals(H1: Subspace, H2: Subspace,
                                  tol: Tolerance = DEFAULT) -> dict[str, float]:
    """commutator_link: [P1, P2] = D(H1,H2) (P1 - P2).

    Links the projector commutator to the two-argument non-additivity
    operator; zero up to round-off for every pair.
    """
    P1, P2 = H1.projector(), H2.projector()
    D = mobius([H1, H2], tol).matrix
    return {"commutator_link": frobenius(P1 @ P2 - P2 @ P1 - D @ (P1 - P2))}


def triple_identity_residuals(H1: Subspace, H2: Subspace, H3: Subspace,
                              tol: Tolerance = DEFAULT) -> dict[str, float]:
    """Residuals of the three-argument operator identities:

      sum_rule          D(1,2,3) + Ddual(1,2,3) + D(1,2) + D(1,3) + D(2,3) = 0
      sandwich          P1 P3 P2 - P(H1^H2^H3) = P1 D(1,2,3) P2
      double_commutator [[P1,P3],P2] = (P1-P3) D P2 + P2 D (P1-P3)
    and, when H1 <= H2 holds, the chain reductions
      chain_direct      D(1,2,3) + D(1,3) = 0
      chain_dual        Ddual(1,2,3) + D(2,3) = 0
    """
    P1, P2, P3 = H1.projector(), H2.projector(), H3.projector()
    D = mobius([H1, H2, H3], tol).matrix
    Dd = mobius_dual([H1, H2, H3], tol).matrix
    D12 = mobius([H1, H2], tol).matrix
    D13 = mobius([H1, H3], tol).matrix
    D23 = mobius([H2, H3], tol).matrix

    comm13 = P1 @ P3 - P3 @ P1
    out = {
        "sum_rule": frobenius(D + Dd + D12 + D13 + D23),
        "sandwich": frobenius(
            P1 @ P3 @ P2 - meet(meet(H1, H2, tol), H3, tol).projector() - P1 @ D @ P2),
        "double_commutator": frobenius(
            (comm13 @ P2 - P2 @ comm13) - ((P1 - P3) @ D @ P2 + P2 @ D @ (P1 - P3))),
    }
    if leq(H1, H2, tol):
        out["chain_direct"] = frobenius(D + D13)
        out["chain_dual"] = frobenius(Dd + D23)
    return out


def varpi_link_residuals(H1: Subspace, H2: Subspace, H0: Subspace,
                         tol: Tolerance = DEFAULT) -> dict[str, float]:
    """Residuals of the decompositions of both defects into Moebius operators.

    Each defect is checked against two independent expressions:

      varpi1 = -D(1,2,0) - D(H1^H2, H0) - D(1,2) + D(H1vH0, H2vH0)
      varpi1 = Ddual(1,2,0) + D(1,0) + D(2,0) - D(H1^H2, H0) + D(H1vH0, H2vH0)
      varpi2 = Ddual(1,2,0) + D(H1vH2, H0) + D(1,2) - D(H1^H0, H2^H0)
      varpi2 = -D(1,2,0) - D(1,0) - D(2,0) + D(H1vH2, H0) - D(H1^H0, H2^H0)

    The second form of each pair follows from the first via the triple sum
    rule, so the four residuals jointly tie non-distributivity,
    non-additivity and non-commutativity together.
    """
    vp1 = varpi1(H1, H2, H0, tol).matrix
    vp2 = varpi2(H1, H2, H0, tol).matrix

    D120 = mobius([H1, H2, H0], tol).matrix
    Dd120 = mobius_dual([H1, H2, H0], tol).matrix
    D12 = mobius([H1, H2], tol).matrix
    D10 = mobius([H1, H0], tol).matrix
    D20 = mobius([H2, H0], tol).matrix
    D_meet12_0 = mobius([meet(H1, H2, tol), H0], tol).matrix
    D_join12_0 = mobius([join(H1, H2, tol), H0], tol).matrix
    D_joins = mobius([join(H1, H0, tol), join(H2, H0, tol)], tol).matrix
    D_meets = mobius([meet(H1, H0, tol), meet(H2, H0, tol)], tol).matrix

    return {
        "varpi1_direct": frobenius(vp1 - (-D120 - D_meet12_0 - D12 + D_joins)),
        "varpi1_dual": frobenius(vp1 - (Dd120 + D10 + D20 - D_meet12_0 + D_joins)),
        "varpi2_direct": frobenius(vp2 - (Dd120 + D_join12_0 + D12 - D_meets)),
        "varpi2_dual": frobenius(vp2 - (-D120 - D10 - D20 + D_join12_0 - D_meets)),
    }


def pi_decomposition_residuals(H0: Subspace, H1: Subspace,
                               tol: Tolerance = DEFAULT) -> dict[str, float]:
    """decomposition: pi(H0;H1) = varpi2(H1, H1p | H0) + D(H1^H0, H1p^H0).

    Splits the total-probability deviation into a distributivity part and a
    non-additivity part; exact for every pair.
    """
    H1p = orthocomplement(H1, tol)
    lhs = pi_deviation(H0, H1, tol).matrix
    rhs = (varpi2(H1, H1p, H0, tol).matrix
           + mobius([meet(H1, H0, tol), meet(H1p, H0, tol)], tol).matrix)
    return {"decomposition": frobenius(lhs - rhs)}


def moment_relation_residuals(rho: DensityMatrix, H1: Subspace, H2: Subspace,
                              tol: Tolerance = DEFAULT) -> dict[str, float]:
    """Residuals of the mean and variance relations for D(H1, H2).

    mean:     E[D] = E[Pv] - E[P1] - E[P2] + E[Pm]
    variance: Var[D] = Var[Pv] - Var[P1] - Var[P2] + Var[Pm] + a,
    where a collects the cross terms (including the symmetrized product
    E[P1 P2 + P2 P1]) that survive because the four projectors are not
    independent observables.
    """
    P1, P2 = H1.projector(), H2.projector()
    Pv = join(H1, H2, tol).projector()
    Pm = meet(H1, H2, tol).projector()
    D = mobius([H1, H2], tol).matrix

    E = lambda T: expectation(rho, T)
    Var = lambda T: np.trace(T @ T @ rho.matrix).real - E(T) ** 2

    e1, e2, ev, em = E(P1), E(P2), E(Pv), E(Pm)
    mean_res = abs(E(D) - (ev - e1 - e2 + em))

    a = (-2.0 * e1 ** 2 - 2.0 * e2 ** 2 - 2.0 * e1 * e2
         + 2.0 * ev * (e1 + e2)
         + E(P1 @ P2 + P2 @ P1)
         + 2.0 * em * (e1 + e2 - ev - 1.0))
    var_res = abs(Var(D) - (Var(Pv) - Var(P1) - Var(P2) + Var(Pm) + a))
    return {"mean": mean_res, "variance": var_res}


def modularity_residuals(H1: Subspace, H2: Subspace, H3: Subspace,
                         tol: Tolerance = DEFAULT) -> dict[str, float]:
    """modularity: H1 v (H2 ^ H3) = (H1 v H2) ^ H3, for H1 <= H3."""
    lhs = join(H1, meet(H2, H3, tol), tol).projector()
    rhs = meet(join(H1, H2, tol), H3, tol).projector()
    return {"modularity": frobenius(lhs - rhs)}


def p1_residuals(H1: Subspace, H2: Subspace,
                 tol: Tolerance = DEFAULT) -> dict[str, float]:
    """Spectral constraint P1 on D(H1,H2) (see modular.spectral_p1):

      eigenvalue_sum        |sum of the eigenvalues|
      multiplicity_deficit  how many of the required d - dim(H1 v H2)
                            vanishing eigenvalues are missing
    """
    report = spectral_p1(H1, H2, tol)
    return {
        "eigenvalue_sum": report.abs_sum,
        "multiplicity_deficit": float(max(0, report.required_zero_count - report.zero_count)),
    }


def p2_residuals(H1: Subspace, H2: Subspace, h: Subspace, h_second: Subspace,
                 tol: Tolerance = DEFAULT) -> dict[str, float]:
    """Telescoping of D over a sandwiched interval, for h, h' in [H1^H2, H1]:

      telescope         D(H2, h) + D(h v H2, H1) = D(H2, H1)
      telescope_second  the same for h'
      members_agree     the two telescoped sums agree with each other
    """
    interval = Interval(meet(H1, H2, tol), H1, tol)
    if not (interval.contains(h, tol) and interval.contains(h_second, tol)):
        raise PreconditionViolated("member outside [H1^H2, H1]")
    total = mobius([H2, H1], tol).matrix
    first, second = (mobius([H2, m], tol).matrix + mobius([join(m, H2, tol), H1], tol).matrix
                     for m in (h, h_second))
    return {"telescope": frobenius(first - total),
            "telescope_second": frobenius(second - total),
            "members_agree": frobenius(first - second)}


def p3_residuals(H1p: Subspace, H2: Subspace, H3p: Subspace, h: Subspace,
                 tol: Tolerance = DEFAULT) -> dict[str, float]:
    """Identities relating projective intervals [H1,H1'] and [H3,H3'].

    H2' = H1' v H2 and H1 = H1' ^ H2, so that [H1,H1'] <=tr [H2,H2'].  H3'
    must satisfy H3' <= H2' and H3' v H2 = H2'; then H3 = H3' ^ H2 and
    [H3,H3'] <=tr [H2,H2'] as well, making [H1,H1'] and [H3,H3'] projective.
    With h in [H1,H1'] and h' = (h v H2) ^ H3':

      endpoint   P(H3') - P(H3) - P(H1') + P(H1) = D(H1',H2) - D(H2,H3')
      member     P(h') - P(H3) - P(h) + P(H1) = D(h,H2) - D(H2,h')
      roundtrip  (h' v H2) ^ H1' recovers h  (projective_roundtrip_residuals)
    """
    H2p = join(H1p, H2, tol)
    H1 = meet(H1p, H2, tol)
    if not leq(H3p, H2p, tol):
        raise PreconditionViolated("H3' not contained in H1' v H2")
    if not join(H3p, H2, tol).equiv(H2p, tol):
        raise PreconditionViolated("H3' v H2 does not reach H1' v H2")
    if not Interval(H1, H1p, tol).contains(h, tol):
        raise PreconditionViolated("h outside [H1, H1']")
    H3 = meet(H3p, H2, tol)
    hp = meet(join(h, H2, tol), H3p, tol)
    lhs = H3p.projector() - H3.projector() - H1p.projector() + H1.projector()
    rhs = mobius([H1p, H2], tol).matrix - mobius([H2, H3p], tol).matrix
    lhs2 = hp.projector() - H3.projector() - h.projector() + H1.projector()
    rhs2 = mobius([h, H2], tol).matrix - mobius([H2, hp], tol).matrix
    return {"endpoint": frobenius(lhs - rhs), "member": frobenius(lhs2 - rhs2),
            **projective_roundtrip_residuals(H1p, H2, H3p, h, tol)}


def projective_roundtrip_residuals(H1p: Subspace, H2: Subspace, H3p: Subspace, h: Subspace,
                                   tol: Tolerance = DEFAULT) -> dict[str, float]:
    """roundtrip: (h' v H2) ^ H1' recovers h, where h' = (h v H2) ^ H3' and
    the inputs satisfy p3_residuals' preconditions; zero by modularity."""
    hp = meet(join(h, H2, tol), H3p, tol)
    back = meet(join(hp, H2, tol), H1p, tol)
    return {"roundtrip": frobenius(back.projector() - h.projector())}


def transpose_roundtrip_residuals(h: Subspace, H1: Subspace, H2: Subspace,
                                  tol: Tolerance = DEFAULT) -> dict[str, float]:
    """pair_roundtrip: ||P(h) - P((h v H2) ^ H1)|| for h in [H1^H2, H1];
    zero by modularity."""
    back = transpose_down(transpose_up(h, H1, H2, tol), H1, H2, tol)
    return {"pair_roundtrip": frobenius(back.projector() - h.projector())}


def demorgan_residuals(H1: Subspace, H2: Subspace,
                       tol: Tolerance = DEFAULT) -> dict[str, float]:
    """De Morgan laws of the orthocomplement:

      meet_law  (H1 ^ H2)-perp = H1-perp v H2-perp
      join_law  (H1 v H2)-perp = H1-perp ^ H2-perp
    """
    meet_perp = orthocomplement(meet(H1, H2, tol), tol).projector()
    perp_join = join(orthocomplement(H1, tol), orthocomplement(H2, tol), tol).projector()
    join_perp = orthocomplement(join(H1, H2, tol), tol).projector()
    perp_meet = meet(orthocomplement(H1, tol), orthocomplement(H2, tol), tol).projector()
    return {
        "meet_law": frobenius(meet_perp - perp_join),
        "join_law": frobenius(join_perp - perp_meet),
    }


# -- samplers: (d, rng, tol) -> the identity's positional inputs --------------

def _generic(rng, d, tol):
    return random_subspace(d, rng.integer(1, d) if d > 1 else 1, rng, tol)


def _generics(n):
    return lambda d, rng, tol: tuple(_generic(rng, d, tol) for _ in range(n))


def _state_pair(d, rng, tol):
    return random_density(d, rng), _generic(rng, d, tol), _generic(rng, d, tol)


def _modular(d, rng, tol):
    """(H1, H2, H3) with H1 <= H3 nested by construction."""
    r_big = rng.integer(0, d + 1)
    H1, H3 = random_nested_pair(d, rng.integer(0, r_big + 1), r_big, rng, tol)
    return H1, _generic(rng, d, tol), H3


def _sandwiched(d, rng, tol):
    """(H1, H2, h, h') with h and h' in [H1^H2, H1]."""
    H1, H2 = _generic(rng, d, tol), _generic(rng, d, tol)
    return (H1, H2, random_sandwiched_member(H1, H2, rng, tol),
            random_sandwiched_member(H1, H2, rng, tol))


def _projective(d, rng, tol):
    """(H1', H2, H3', h) satisfying p3_residuals' preconditions."""
    for _ in range(20):
        H2 = _generic(rng, d, tol)
        H1p = _generic(rng, d, tol)
        H2p = join(H1p, H2, tol)
        k_min = max(1, H2p.rank - H2.rank)
        H3p = inside(H2p, rng.integer(k_min, H2p.rank + 1), rng, tol)
        if join(H3p, H2, tol).equiv(H2p, tol):
            return H1p, H2, H3p, random_sandwiched_member(H1p, H2, rng, tol)
    raise RuntimeError("could not draw a projective configuration")


def _sweep(sampler, identity):
    def check(d, rng, tol):
        return identity(*sampler(d, rng, tol), tol=tol)
    return check


def check_triple(d, rng, tol):
    out = triple_identity_residuals(*_generics(3)(d, rng, tol), tol)
    # chained draw exercises the reductions that need H1 <= H2
    r_big = rng.integer(1, d + 1)
    small, big = random_nested_pair(d, rng.integer(0, r_big + 1), r_big, rng, tol)
    chained = triple_identity_residuals(small, big, _generic(rng, d, tol), tol)
    for key, val in chained.items():
        out[f"nested_{key}"] = val
    return out


def check_transpose_roundtrip(d, rng, tol):
    H1, H2 = _generic(rng, d, tol), _generic(rng, d, tol)
    out = transpose_roundtrip_residuals(
        random_sandwiched_member(H1, H2, rng, tol), H1, H2, tol)
    out["projective_roundtrip"] = projective_roundtrip_residuals(
        *_projective(d, rng, tol), tol)["roundtrip"]
    return out


# |sum of the eigenvalues of D(H1,H2)| allowed by spectral constraint P1
P1_SUM_EPS = 1e-8

# name -> (function, {residual-name pattern: tolerance overriding identity_eps})
REGISTRY = {
    "e3": (_sweep(_generics(2), commutator_identity_residuals), {}),
    "triple": (check_triple, {}),
    "varpi-links": (_sweep(_generics(3), varpi_link_residuals), {}),
    "pi-decomp": (_sweep(_generics(2), pi_decomposition_residuals), {}),
    "moments": (_sweep(_state_pair, moment_relation_residuals), {}),
    "modularity": (_sweep(_modular, modularity_residuals), {}),
    "p1": (_sweep(_generics(2), p1_residuals),
           {"eigenvalue_sum": P1_SUM_EPS, "multiplicity_deficit": 1e-7}),
    "p2": (_sweep(_sandwiched, p2_residuals), {}),
    "p3": (_sweep(_projective, p3_residuals), {}),
    "transpose-roundtrip": (check_transpose_roundtrip, {}),
    "demorgan": (_sweep(_generics(2), demorgan_residuals), {}),
}

ALL_CHECKS = tuple(REGISTRY)


@dataclass(frozen=True)
class SweepConfig:
    dimension: int
    trials: int
    seed: int
    checks: tuple[str, ...] = ALL_CHECKS
    tolerances: Tolerance = DEFAULT

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidConfig(f"trials must be >= 1, got {self.trials}")
        if self.dimension < 2:
            raise InvalidConfig(f"dimension must be >= 2, got {self.dimension}")
        for name in self.checks:
            if name not in REGISTRY:
                raise UnknownCheck(f"{name!r}; known: {', '.join(REGISTRY)}")


@dataclass(frozen=True)
class SweepLine:
    check: str
    residual_name: str
    max_residual: float
    tolerance: float
    worst_trial: int

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def run_sweep(config: SweepConfig) -> list[SweepLine]:
    """Run every configured check for the configured number of trials.

    Each (check, trial) pair gets its own generator substream derived from
    the seed, so reports are identical for identical configurations and a
    failing trial can be replayed in isolation.
    """
    lines: list[SweepLine] = []
    check_index = {name: i for i, name in enumerate(REGISTRY)}
    for name in config.checks:
        func, overrides = REGISTRY[name]
        worst: dict[str, tuple[float, int]] = {}
        for trial in range(config.trials):
            rng = Xorshift64Star(
                mix_stream(config.seed, check_index[name], config.dimension, trial))
            for res_name, value in func(config.dimension, rng, config.tolerances).items():
                value = float(value)
                if res_name not in worst or value > worst[res_name][0]:
                    worst[res_name] = (value, trial)
        for res_name in sorted(worst):
            value, trial = worst[res_name]
            tolerance = overrides.get(res_name, config.tolerances.identity_eps)
            lines.append(SweepLine(name, res_name, value, tolerance, trial))
    return lines


def format_report(config: SweepConfig, lines: list[SweepLine]) -> str:
    """Fixed-format text report; identical configurations yield identical bytes."""
    out = [f"sweep d={config.dimension} trials={config.trials} seed={config.seed}"]
    for line in lines:
        status = "pass" if line.passed else "FAIL"
        out.append(
            f"  {line.check:>20s} {line.residual_name:<24s} "
            f"max_residual={line.max_residual:.6e} tol={line.tolerance:.1e} "
            f"worst_trial={line.worst_trial} {status}")
    failed = [l for l in lines if not l.passed]
    out.append(f"checks: {len(lines)} lines, {len(failed)} failing")
    return "\n".join(out) + "\n"
