import numpy as np

import pytest

from qlattice.distributivity import (binary_defect_residuals, pi_deviation,
                                     varpi1, varpi2)
from qlattice.errors import DimensionMismatch
from qlattice.golden import worked_example
from qlattice.lattice import (Subspace, commutes, join,
                              random_nested_pair, random_subspace)
from qlattice.numerics import frobenius, hermitian_eig
from qlattice.sweeps import pi_decomposition_residuals, varpi_link_residuals


def coordinate_subspaces():
    e = np.eye(3)
    H1 = Subspace.from_vectors(e[:, :2])
    H2 = Subspace.line(e[:, 1])
    H0 = Subspace.line(e[:, 2])
    return H1, H2, H0


def test_varpi1_vanishes_for_nested_arguments(rng):
    small, big = random_nested_pair(4, 1, 3, rng)
    H0 = random_subspace(4, 2, rng)
    assert frobenius(varpi1(small, big, H0).matrix) <= 1e-10
    assert frobenius(varpi2(small, big, H0).matrix) <= 1e-10


def test_varpi2_vanishes_for_comparable_condition_argument(rng):
    H0, H1 = random_nested_pair(4, 1, 3, rng)
    H2 = random_subspace(4, 2, rng)
    assert frobenius(varpi1(H1, H2, H0).matrix) <= 1e-10
    assert frobenius(varpi2(H1, H2, H0).matrix) <= 1e-10


def test_varpi_vanishes_for_commuting_coordinates():
    H1, H2, H0 = coordinate_subspaces()
    assert frobenius(varpi1(H1, H2, H0).matrix) <= 1e-12
    assert frobenius(varpi2(H1, H2, H0).matrix) <= 1e-12


def test_example_varpi1_matrix():
    H1, H2, H3, _ = worked_example()
    vp1 = varpi1(H1, H2, H3).matrix
    # reduces to P(H1 v H3) - P(H3) because the example lines share a plane
    reduced = join(H1, H3).projector() - H3.projector()
    assert frobenius(vp1 - reduced) <= 1e-10
    assert abs(vp1[1, 1].real - 0.580) <= 5e-3


def test_example_varpi2_equals_pi():
    H1, H2, H3, _ = worked_example()
    vp2 = varpi2(H1, H2, H3).matrix
    pi = pi_deviation(H3, H1).matrix
    assert frobenius(vp2 - H3.projector()) <= 1e-10
    assert frobenius(pi - H3.projector()) <= 1e-10
    assert abs(vp2[2, 2].real - 0.712) <= 5e-3


def test_complement_pair_vanishes_iff_commuting(rng):
    # commuting case: coordinate construction
    e = np.eye(4)
    H1 = Subspace.from_vectors(e[:, :2])
    H0 = Subspace.from_vectors(e[:, 1:3])
    assert commutes(H1, H0)
    assert frobenius(varpi1(H1, H1.perp(), H0).matrix) <= 1e-12
    assert frobenius(varpi2(H1, H1.perp(), H0).matrix) <= 1e-12
    # generic case: both nonzero
    H1r = random_subspace(4, 2, rng)
    H0r = random_subspace(4, 2, rng)
    assert not commutes(H1r, H0r)
    assert frobenius(varpi1(H1r, H1r.perp(), H0r).matrix) > 1e-6
    assert frobenius(varpi2(H1r, H1r.perp(), H0r).matrix) > 1e-6


def test_pi_vanishes_for_commuting_pair():
    e = np.eye(3)
    H0 = Subspace.from_vectors(e[:, :2])
    H1 = Subspace.line(e[:, 0])
    assert frobenius(pi_deviation(H0, H1).matrix) <= 1e-12


def test_mixed_ambient_dimensions_raise(rng):
    H3a, H3b = random_subspace(3, 1, rng), random_subspace(3, 2, rng)
    H4 = random_subspace(4, 2, rng)
    for args in ((H3a, H3b, H4), (H3a, H4, H3b), (H4, H3a, H3b)):
        with pytest.raises(DimensionMismatch):
            varpi1(*args)
        with pytest.raises(DimensionMismatch):
            varpi2(*args)
    for args in ((H3a, H4), (H4, H3a)):
        with pytest.raises(DimensionMismatch):
            pi_deviation(*args)


def test_pi_decomposition_random(rng):
    for d in (2, 3, 4):
        for _ in range(10):
            H0 = random_subspace(d, rng.integer(1, d), rng)
            H1 = random_subspace(d, rng.integer(1, d), rng)
            assert pi_decomposition_residuals(H0, H1)["decomposition"] <= 1e-9


def test_swap_symmetry(rng):
    H1 = random_subspace(4, 2, rng)
    H2 = random_subspace(4, 1, rng)
    H0 = random_subspace(4, 2, rng)
    assert frobenius(varpi1(H1, H2, H0).matrix - varpi1(H2, H1, H0).matrix) <= 1e-10
    assert frobenius(varpi2(H1, H2, H0).matrix - varpi2(H2, H1, H0).matrix) <= 1e-10


def test_defects_are_projectors(rng):
    for _ in range(10):
        H1, H2, H0 = (random_subspace(4, rng.integer(1, 4), rng) for _ in range(3))
        for dev in (varpi1(H1, H2, H0), varpi2(H1, H2, H0)):
            M = dev.matrix
            assert frobenius(M @ M - M) <= 1e-9
            assert frobenius(M - M.conj().T) <= 1e-10
            w, _ = hermitian_eig(M)
            assert np.all((np.abs(w) <= 1e-7) | (np.abs(w - 1.0) <= 1e-7))


def test_pi_idempotence_diagnostic(rng):
    # not asserted as part of the defect contract, but measurably exact:
    # the subtracted projectors are orthogonal pieces nested inside H0
    for _ in range(10):
        H0 = random_subspace(4, rng.integer(1, 4), rng)
        H1 = random_subspace(4, rng.integer(1, 4), rng)
        M = pi_deviation(H0, H1).matrix
        assert frobenius(M @ M - M) <= 1e-9


def test_binary_defect_residuals(rng):
    for _ in range(10):
        H1 = random_subspace(4, rng.integer(1, 4), rng)
        H0 = random_subspace(4, rng.integer(1, 4), rng)
        res = binary_defect_residuals(H1, H0)
        assert all(v <= 1e-9 for v in res.values())


def test_varpi_links_example_and_random(rng):
    H1, H2, H3, _ = worked_example()
    for value in varpi_link_residuals(H1, H2, H3).values():
        assert value <= 1e-9
    H1c, H2c, H0c = coordinate_subspaces()
    for value in varpi_link_residuals(H1c, H2c, H0c).values():
        assert value <= 1e-12
    for _ in range(5):
        subs = [random_subspace(5, rng.integer(1, 5), rng) for _ in range(3)]
        for value in varpi_link_residuals(*subs).values():
            assert value <= 1e-9


def test_double_commutator_remark():
    # pairwise commuting coordinate subspaces: defects vanish and the
    # double commutators are zero
    H1, H2, H0 = coordinate_subspaces()
    P = [H1.projector(), H2.projector(), H0.projector()]
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        comm = P[i] @ P[j] - P[j] @ P[i]
        assert frobenius(comm @ P[k] - P[k] @ comm) <= 1e-12
    assert frobenius(varpi1(H1, H2, H0).matrix) <= 1e-12
