import numpy as np
import pytest

from qlattice.coherent import (CoherentAggregate, CoherentFamily,
                               displacement_covariance_residuals,
                               generic_fiducial, mixed_coherent_state,
                               overlap_trace_residual,
                               pair_projector_residual,
                               perp_resolution_residual,
                               resolution_residuals)
from qlattice.errors import (DuplicateLabel, EvenDimension, InvalidArgument,
                             LinearlyDependentState, NonUnitFiducial)
from qlattice.lattice import join
from qlattice.numerics import frobenius


def family(d, rng=None):
    if rng is None:
        return CoherentFamily(d, generic_fiducial(d))
    f = rng.complex_gaussian_matrix(d, 1).reshape(-1)
    return CoherentFamily(d, f / np.linalg.norm(f))


def test_rejects_even_or_tiny_dimension():
    with pytest.raises(EvenDimension):
        CoherentFamily(4, np.ones(4) / 2.0)
    with pytest.raises(EvenDimension):
        CoherentFamily(1, np.ones(1))


def test_rejects_unnormalized_fiducial():
    with pytest.raises(NonUnitFiducial):
        CoherentFamily(3, np.array([1.0, 1.0, 0.0]))


def test_rejects_nan_fiducial():
    with pytest.raises(NonUnitFiducial):
        CoherentFamily(3, np.full(3, np.nan))


def test_half_inverse_mod_three():
    fam = family(3)
    assert fam.half == 2
    assert (2 * fam.half) % 3 == 1


def test_generator_algebra():
    for d in (3, 5):
        fam = family(d)
        Z, X = fam.z_gen, fam.x_gen
        assert frobenius(np.linalg.matrix_power(X, d) - np.eye(d)) <= 1e-10
        assert frobenius(np.linalg.matrix_power(Z, d) - np.eye(d)) <= 1e-10
        a, b = 2 % d, d - 1
        XB = np.linalg.matrix_power(X, b)
        ZA = np.linalg.matrix_power(Z, a)
        assert frobenius(XB @ ZA - ZA @ XB * fam.omega(-a * b)) <= 1e-10
        assert frobenius(fam.displacement(a, b)
                         - ZA @ XB * fam.omega(-fam.half * a * b)) <= 1e-10


def test_displacement_unitary_and_identity_at_origin():
    fam = family(5)
    assert frobenius(fam.displacement(0, 0) - np.eye(5)) <= 1e-12
    for (a, b) in [(1, 2), (4, 3), (2, 0)]:
        D = fam.displacement(a, b)
        assert frobenius(D @ D.conj().T - np.eye(5)) <= 1e-10


def test_position_representation_of_states():
    d = 3
    fam = CoherentFamily(d, np.array([1.0, 0.0, 0.0]))
    for a in range(d):
        for b in range(d):
            state = fam.state(a, b)
            n = np.arange(d)
            predicted = fam.omega(-fam.half * a * b + a * n) \
                * fam.fiducial[(n - b) % d]
            assert np.allclose(state, predicted, atol=1e-12)


def test_overlap_same_label_is_one():
    fam = family(5)
    assert abs(fam.overlap(2, 3, 2, 3) - 1.0) <= 1e-12


def test_overlap_disjoint_support():
    fam = CoherentFamily(3, np.array([1.0, 0.0, 0.0]))
    assert abs(fam.overlap(0, 0, 0, 1)) <= 1e-12


def test_overlap_closed_form_random_labels(rng):
    fam = family(5, rng)
    for _ in range(20):
        labels = [rng.integer(0, 5) for _ in range(4)]
        fam.overlap(*labels)  # raises InternalInconsistency if routes disagree


def test_state_resolution_of_identity(rng):
    fam = family(5, rng)
    total = sum(fam.state_projector(a, b) for a in range(5) for b in range(5))
    assert frobenius(total / 5 - np.eye(5)) <= 1e-9


def test_perp_resolution(rng):
    fam = family(5, rng)
    assert perp_resolution_residual(fam) <= 1e-9


def test_state_covariance():
    fam = family(5)
    D = fam.displacement(1, 2)
    moved = D @ fam.state_projector(3, 4) @ D.conj().T
    assert frobenius(moved - fam.state_projector(4, 6 % 5)) <= 1e-10


def test_overlap_trace_invariant(rng):
    fam = family(7, rng)
    for _ in range(10):
        l1 = (rng.integer(0, 7), rng.integer(0, 7))
        l2 = (rng.integer(0, 7), rng.integer(0, 7))
        assert overlap_trace_residual(fam, l1, l2) <= 1e-10


def test_pair_aggregate_matches_closed_form(rng):
    fam = family(5, rng)
    assert pair_projector_residual(fam, (0, 0), (1, 3)) <= 1e-10


def test_aggregate_invariants(rng):
    fam = family(5, rng)
    agg = CoherentAggregate.from_labels(fam, [(0, 0), (1, 0), (0, 1)])
    assert abs(np.trace(agg.projector).real - 3) <= 1e-9
    P = agg.projector
    assert frobenius(P @ P - P) <= 1e-9
    first = fam.state_projector(0, 0)
    for inc in agg.increments:
        assert abs(np.trace(inc).real - 1.0) <= 1e-9
        assert frobenius(inc @ inc - inc) <= 1e-9
    # the first increment is orthogonal to the starting projector
    assert frobenius(first @ agg.increments[0]) <= 1e-10
    # cumulative sum identity
    total = first + sum(agg.increments)
    assert frobenius(total - agg.projector) <= 1e-10


def test_full_aggregate_is_identity():
    d = 3
    fam = family(d)
    agg = CoherentAggregate.from_labels(fam, [(0, 0), (1, 0), (0, 1)])
    assert frobenius(agg.projector - np.eye(d)) <= 1e-9


def test_aggregate_rejects_duplicates_and_dependence():
    d = 3
    fam = family(d)
    agg = CoherentAggregate.from_labels(fam, [(0, 0)])
    with pytest.raises(DuplicateLabel):
        agg.extend((0, 0))
    full = CoherentAggregate.from_labels(fam, [(0, 0), (1, 0), (0, 1)])
    with pytest.raises(LinearlyDependentState):
        full.extend((2, 2))


def test_aggregate_needs_a_label():
    with pytest.raises(InvalidArgument):
        CoherentAggregate.from_labels(family(3), [])


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-6, 1e-8])
def test_dependence_is_the_rank_gain_of_join(eps):
    # Z moves the fiducial (1, eps, 0) by an angle of order eps
    f = np.array([1.0, eps, 0.0])
    fam = CoherentFamily(3, f / np.linalg.norm(f))
    gain = join(fam.subspace(0, 0), fam.subspace(1, 0)).rank - 1
    if gain:
        assert CoherentAggregate.from_labels(fam, [(0, 0), (1, 0)]).span.rank == 2
    else:
        with pytest.raises(LinearlyDependentState):
            CoherentAggregate.from_labels(fam, [(0, 0), (1, 0)])


def test_position_basis_aggregate():
    # with the first position state as fiducial, labels (0,0),(0,1),(0,2)
    # shift through the whole basis
    fam = CoherentFamily(3, np.array([1.0, 0.0, 0.0]))
    agg = CoherentAggregate.from_labels(fam, [(0, 0), (0, 1), (0, 2)])
    assert frobenius(agg.projector - np.eye(3)) <= 1e-12


def test_projector_order_independence(rng):
    fam = family(5, rng)
    labels = [(0, 0), (1, 2), (3, 1)]
    a = CoherentAggregate.from_labels(fam, labels)
    b = CoherentAggregate.from_labels(fam, list(reversed(labels)))
    assert frobenius(a.projector - b.projector) <= 1e-9


def test_covariance_residuals(rng):
    fam3 = family(3, rng)
    agg = CoherentAggregate.from_labels(fam3, [(0, 0), (1, 1)])
    trivial = displacement_covariance_residuals(agg, 0, 0)
    assert all(v <= 1e-12 for v in trivial.values())
    shifted = displacement_covariance_residuals(agg, 1, 2)
    assert all(v <= 1e-9 for v in shifted.values())
    fam5 = family(5, rng)
    agg5 = CoherentAggregate.from_labels(fam5, [(0, 0), (2, 3)])
    res5 = displacement_covariance_residuals(agg5, 4, 1)
    assert res5["mobius"] <= 1e-9


def test_resolution_residuals(rng):
    fam = family(5, rng)
    res = resolution_residuals(fam, [(0, 0), (1, 0), (0, 1)])
    assert res["identity_from_projectors"] <= 1e-9
    assert res["identity_from_increments"] <= 1e-9
    assert res["mobius_sum"] <= 1e-9
    assert res["trace_relation"] <= 1e-9
    # the naive 1/i rescaling cannot close the identity unless i = d
    assert res["increments_naive_coefficient"] > 0.1


def test_trace_relation_with_identity_operator():
    d = 3
    fam = family(d)
    total = sum(fam.displacement(a, b) @ np.eye(d) @ fam.displacement(a, b).conj().T
                for a in range(d) for b in range(d))
    assert frobenius(total / d - d * np.eye(d)) <= 1e-10


def test_mixed_state_entropy():
    d = 3
    fam = family(d)
    single = CoherentAggregate.from_labels(fam, [(0, 0)])
    assert mixed_coherent_state(single).entropy() <= 1e-9
    pair = CoherentAggregate.from_labels(fam, [(0, 0), (1, 1)])
    assert abs(mixed_coherent_state(pair).entropy() - np.log(2)) <= 1e-9
    full = CoherentAggregate.from_labels(fam, [(0, 0), (1, 0), (0, 1)])
    assert abs(mixed_coherent_state(full).entropy() - np.log(3)) <= 1e-9
