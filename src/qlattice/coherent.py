"""Coherent states of a finite quantum system on Z(d), d odd, and the
cumulative projectors built from them.

The displacement unitaries D(a, b) move a fiducial vector around the d x d
discrete phase space, producing d^2 coherent states.  Aggregating several
of them by lattice joins yields rank-i projectors that inherit two coherence
properties: displacement covariance and resolutions of the identity over
all phase-space translates.
"""

from __future__ import annotations

import numpy as np

from .errors import (DimensionMismatch, DuplicateLabel, EvenDimension,
                     InternalInconsistency, InvalidArgument,
                     LinearlyDependentState, NonUnitFiducial,
                     ShiftDependenceFailure)
from .lattice import Subspace, join
from .mobius import mobius
from .numerics import frobenius
from .observables import DensityMatrix
from .tolerances import DEFAULT, Tolerance


def generic_fiducial(d: int) -> np.ndarray:
    """A deliberately unsymmetric reference vector.

    Gaussian-like magnitudes plus a linear imaginary ramp; the asymmetry
    keeps arbitrary label sets linearly independent in practice, which a
    symmetric fiducial would not.
    """
    m = np.arange(d)
    f = np.exp(-((m - (d - 1) / 2.0) ** 2) / d) + 0.1j * m
    return f / np.linalg.norm(f)


class CoherentFamily:
    """All d^2 coherent states generated from one fiducial vector, d odd."""

    def __init__(self, d: int, fiducial):
        if d < 3 or d % 2 == 0:
            raise EvenDimension(f"dimension must be odd and >= 3, got {d}")
        f = np.asarray(fiducial, dtype=complex).reshape(-1)
        if f.shape[0] != d:
            raise DimensionMismatch(f"fiducial has length {f.shape[0]}, expected {d}")
        if not abs(np.linalg.norm(f) - 1.0) <= 1e-10:  # NaN fails this too
            raise NonUnitFiducial(f"fiducial norm {np.linalg.norm(f)}")
        self.d = d
        self.fiducial = f.copy()
        self.fiducial.setflags(write=False)
        self.half = pow(2, -1, d)  # 2^{-1} in Z(d); exists because d is odd
        n = np.arange(d)
        self.z_gen = np.diag(self.omega(n))
        self.x_gen = np.roll(np.eye(d, dtype=complex), 1, axis=0)
        self._displacements: dict[tuple[int, int], np.ndarray] = {}
        self._lines: dict[tuple[int, int], Subspace] = {}

    def omega(self, m):
        """Root-of-unity phase exp(2 pi i m / d), with exact modular reduction."""
        return np.exp(2j * np.pi * (np.asarray(m) % self.d) / self.d)

    def displacement(self, a: int, b: int) -> np.ndarray:
        """Unitary D(a, b) = Z^a X^b omega(-2^{-1} a b), built entrywise."""
        a, b = a % self.d, b % self.d
        key = (a, b)
        if key not in self._displacements:
            d = self.d
            M = np.zeros((d, d), dtype=complex)
            n = np.arange(d)
            M[(n + b) % d, n] = self.omega(-self.half * a * b + (n + b) * a)
            M.setflags(write=False)
            self._displacements[key] = M
        return self._displacements[key]

    def state(self, a: int, b: int) -> np.ndarray:
        """Coherent state D(a, b) applied to the fiducial vector."""
        return self.subspace(a, b).basis[:, 0]

    def state_projector(self, a: int, b: int) -> np.ndarray:
        return self.subspace(a, b).projector()

    def subspace(self, a: int, b: int) -> Subspace:
        """The coherent line as a lattice element (cached)."""
        key = (a % self.d, b % self.d)
        if key not in self._lines:
            v = self.displacement(*key) @ self.fiducial
            self._lines[key] = Subspace(v.reshape(self.d, 1))
        return self._lines[key]

    def overlap(self, a1: int, b1: int, a2: int, b2: int) -> complex:
        """Inner product of two coherent states via the closed form.

        Cross-checked against the direct inner product on every call; the
        two routes must agree to 1e-12.
        """
        d = self.d
        a1, b1, a2, b2 = a1 % d, b1 % d, a2 % d, b2 % d
        n = np.arange(d)
        s = np.sum(np.conj(self.fiducial[(n + b2 - b1) % d]) * self.fiducial
                   * self.omega(n * (a2 - a1)))
        closed = self.omega(self.half * (a1 * b1 + a2 * b2) - a1 * b2) * s
        direct = np.vdot(self.state(a1, b1), self.state(a2, b2))
        if abs(closed - direct) > 1e-12:
            raise InternalInconsistency(
                f"overlap routes disagree by {abs(closed - direct):.3e}")
        return complex(closed)


class CoherentAggregate:
    """Projector onto the span of several coherent states, grown one state
    at a time by lattice joins; keeps the rank-one increments."""

    def __init__(self, family: CoherentFamily, labels, span: Subspace, increments):
        self.family = family
        self.labels = tuple(labels)
        self.span = span
        self.increments = tuple(increments)

    @classmethod
    def from_labels(cls, family: CoherentFamily, labels,
                    tol: Tolerance = DEFAULT) -> "CoherentAggregate":
        labels = list(labels)
        if not labels:
            raise InvalidArgument("need at least one phase-space label")
        a, b = labels[0]
        agg = cls(family, [(a % family.d, b % family.d)], family.subspace(a, b), [])
        for label in labels[1:]:
            agg = agg.extend(label, tol)
        return agg

    @property
    def projector(self) -> np.ndarray:
        return self.span.projector()

    @property
    def size(self) -> int:
        return len(self.labels)

    def extend(self, label, tol: Tolerance = DEFAULT) -> "CoherentAggregate":
        """New aggregate including one more coherent state.

        The new span is the join of the current span with the state's line,
        and the increment is P(new span) - P(old span); a join that gains no
        rank means the new state is dependent.
        """
        d = self.family.d
        a, b = label[0] % d, label[1] % d
        if (a, b) in self.labels:
            raise DuplicateLabel(f"label {(a, b)} already aggregated")
        span = join(self.span, self.family.subspace(a, b), tol)
        if span.rank == self.span.rank:
            raise LinearlyDependentState(
                f"state {(a, b)} lies in the current span of rank {span.rank}")
        return CoherentAggregate(
            self.family, self.labels + ((a, b),), span,
            self.increments + (span.projector() - self.projector,))

    def shifted(self, k: int, l: int, tol: Tolerance = DEFAULT) -> "CoherentAggregate":
        """The aggregate rebuilt from labels translated by (k, l)."""
        moved = [((a + k) % self.family.d, (b + l) % self.family.d)
                 for a, b in self.labels]
        return CoherentAggregate.from_labels(self.family, moved, tol)

    def subspaces(self) -> list[Subspace]:
        return [self.family.subspace(a, b) for a, b in self.labels]


def pair_projector_residual(family: CoherentFamily, l1, l2,
                            tol: Tolerance = DEFAULT) -> float:
    """Residual of the closed-form rank-2 projector for two coherent states:

      tau [P1 + P2 - P1 P2 - P2 P1],  tau = (1 - |overlap|^2)^{-1}

    against the aggregate of the same two states.
    """
    P1 = family.state_projector(*l1)
    P2 = family.state_projector(*l2)
    lam = family.overlap(*l1, *l2)
    tau = 1.0 / (1.0 - abs(lam) ** 2)
    closed = tau * (P1 + P2 - P1 @ P2 - P2 @ P1)
    agg = CoherentAggregate.from_labels(family, [l1, l2], tol)
    return frobenius(closed - agg.projector)


def displacement_covariance_residuals(agg: CoherentAggregate, k: int, l: int,
                                      tol: Tolerance = DEFAULT) -> dict[str, float]:
    """How well conjugation by D(k, l) matches rebuilding at shifted labels.

    Checks the full projector, every increment, and the non-additivity
    operator over the label lines.
    """
    fam = agg.family
    D = fam.displacement(k, l)
    Ddag = D.conj().T
    rebuilt = agg.shifted(k, l, tol)
    out = {"projector": frobenius(D @ agg.projector @ Ddag - rebuilt.projector)}
    if agg.increments:
        out["increments"] = max(
            frobenius(D @ inc @ Ddag - rinc)
            for inc, rinc in zip(agg.increments, rebuilt.increments))
    if agg.size >= 2:
        M = mobius(agg.subspaces(), tol).matrix
        Mshift = mobius(rebuilt.subspaces(), tol).matrix
        out["mobius"] = frobenius(D @ M @ Ddag - Mshift)
    return out


def resolution_residuals(family: CoherentFamily, labels,
                         tol: Tolerance = DEFAULT) -> dict[str, float]:
    """Residuals of the phase-space resolutions over all d^2 translates.

    identity_from_projectors: (1/(i d)) sum P(shifted aggregate) = 1
    identity_from_increments: (1/d) sum of last increments = 1 (the
        coefficient is forced to 1/d by the trace relation: d^2 trace-one
        terms must average to an operator of trace d)
    increments_naive_coefficient: the same sum scaled by 1/i instead,
        reported for comparison; differs from the identity whenever i != d
    mobius_sum: sum of the non-additivity operators vanishes
    trace_relation: (1/d) sum D Theta D-dagger = Tr(Theta) 1 for the generic
        Theta = diag(1, ..., d) (the engine behind all three resolutions)
    """
    d = family.d
    labels = [tuple(x % d for x in lb) for lb in labels]
    i = len(labels)
    if not (2 <= i <= d):
        raise InvalidArgument(f"need between 2 and {d} labels, got {i}")
    base = CoherentAggregate.from_labels(family, labels, tol)
    total_proj = np.zeros((d, d), dtype=complex)
    total_inc = np.zeros((d, d), dtype=complex)
    total_mob = np.zeros((d, d), dtype=complex)
    for k in range(d):
        for l in range(d):
            try:
                agg = base.shifted(k, l, tol)
            except LinearlyDependentState as exc:
                raise ShiftDependenceFailure(
                    f"shift ({k},{l}) hits linear dependence: {exc}") from exc
            total_proj += agg.projector
            total_inc += agg.increments[-1]
            total_mob += mobius(agg.subspaces(), tol).matrix
    eye = np.eye(d)
    out = {
        "identity_from_projectors": frobenius(total_proj / (i * d) - eye),
        "identity_from_increments": frobenius(total_inc / d - eye),
        "increments_naive_coefficient": frobenius(total_inc / i - eye),
        "mobius_sum": frobenius(total_mob),
    }
    theta = np.diag(np.arange(1, d + 1)).astype(complex)
    conj_sum = sum(family.displacement(k, l) @ theta @ family.displacement(k, l).conj().T
                   for k in range(d) for l in range(d))
    out["trace_relation"] = frobenius(conj_sum / d - np.trace(theta) * eye)
    return out


def perp_resolution_residual(family: CoherentFamily) -> float:
    """(1/(d(d-1))) sum over phase space of (1 - P(a,b)) equals 1."""
    d = family.d
    total = sum(np.eye(d) - family.state_projector(a, b)
                for a in range(d) for b in range(d))
    return frobenius(total / (d * (d - 1)) - np.eye(d))


def overlap_trace_residual(family: CoherentFamily, l1, l2) -> float:
    """Residual of Tr[P(a,b) P(g,h)] = |sum_n f*_{n+h-b} f_n omega(n(g-a))|^2,
    the squared modulus of the closed-form overlap."""
    direct = np.trace(family.state_projector(*l1) @ family.state_projector(*l2)).real
    return abs(direct - abs(family.overlap(*l1, *l2)) ** 2)


def mixed_coherent_state(agg: CoherentAggregate) -> DensityMatrix:
    """Equal mixture over the aggregate's span: rho = P / n, entropy log n."""
    return DensityMatrix(agg.projector / agg.size)
