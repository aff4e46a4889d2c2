import numpy as np
import pytest

from qlattice.distributivity import pi_deviation, varpi1
from qlattice.errors import DimensionMismatch, NonHermitianInput
from qlattice.golden import worked_example
from qlattice.lattice import Subspace, orthocomplement, random_subspace
from qlattice.mobius import mobius
from qlattice.numerics import hermitian_eig
from qlattice.observables import (DensityMatrix, ds_classify, expectation,
                                  projector_moment_residual, random_density,
                                  stddev)
from qlattice.sweeps import moment_relation_residuals


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3))          # trace 3
    with pytest.raises(NonHermitianInput):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_expectation_of_identity(rng):
    rho = random_density(4, rng)
    assert abs(expectation(rho, np.eye(4)) - 1.0) <= 1e-12


def test_stddev_of_identity(rng):
    rho = random_density(3, rng)
    assert stddev(rho, np.eye(3)) <= 1e-7


def test_example_moments():
    H1, H2, H3, rho = worked_example()
    D12 = mobius([H1, H2]).matrix
    assert abs(expectation(rho, D12) - (-0.701)) <= 5e-3
    assert abs(stddev(rho, D12) - 0.651) <= 5e-3
    vp1 = varpi1(H1, H2, H3).matrix
    assert abs(expectation(rho, vp1) - 0.127) <= 5e-3
    assert abs(stddev(rho, vp1) - 0.334) <= 5e-3
    pi = pi_deviation(H3, H1).matrix
    assert abs(expectation(rho, pi) - 0.854) <= 5e-3
    assert abs(stddev(rho, pi) - 0.353) <= 5e-3


def test_moment_relations_commuting_pair(rng):
    e = np.eye(3)
    H1 = Subspace.from_vectors(e[:, :2])
    H2 = Subspace.line(e[:, 1])
    rho = random_density(3, rng)
    res = moment_relation_residuals(rho, H1, H2)
    assert res["mean"] <= 1e-12
    assert res["variance"] <= 1e-12


def test_moment_relations_example():
    H1, H2, _, rho = worked_example()
    res = moment_relation_residuals(rho, H1, H2)
    assert res["mean"] <= 1e-9
    assert res["variance"] <= 1e-9


def test_moment_relations_random_sweep(rng):
    for d in (2, 3, 4, 5, 6):
        for _ in range(25):
            rho = random_density(d, rng)
            H1 = random_subspace(d, rng.integer(1, d), rng)
            H2 = random_subspace(d, rng.integer(1, d), rng)
            res = moment_relation_residuals(rho, H1, H2)
            assert res["mean"] <= 1e-9
            assert res["variance"] <= 1e-9


def test_classification_additive_for_commuting():
    e = np.eye(3)
    H1 = Subspace.from_vectors(e[:, :2])
    H2 = Subspace.line(e[:, 0])
    rho = DensityMatrix.maximally_mixed(3)
    assert ds_classify(rho, H1, H2) == "additive"


def test_classification_example_is_lower():
    H1, H2, _, rho = worked_example()
    assert ds_classify(rho, H1, H2) == "lower"


def test_classification_upper_on_positive_eigenvector():
    H1, H2, _, _ = worked_example()
    D = mobius([H1, H2]).matrix
    w, V = hermitian_eig(D)
    rho = DensityMatrix.pure(V[:, -1])
    assert w[-1] > 1e-6
    assert ds_classify(rho, H1, H2) == "upper"


def test_perp_pair_moments_negate(rng):
    for _ in range(10):
        d = 4
        rho = random_density(d, rng)
        H1 = random_subspace(d, rng.integer(1, d), rng)
        H2 = random_subspace(d, rng.integer(1, d), rng)
        D = mobius([H1, H2]).matrix
        Dp = mobius([orthocomplement(H1), orthocomplement(H2)]).matrix
        assert abs(expectation(rho, Dp) + expectation(rho, D)) <= 1e-10
        assert abs(stddev(rho, Dp) - stddev(rho, D)) <= 1e-10


def test_projector_moment_identity(rng):
    for _ in range(10):
        d = 5
        rho = random_density(d, rng)
        H = random_subspace(d, rng.integer(1, d), rng)
        e = expectation(rho, H.projector())
        assert -1e-12 <= e <= 1.0 + 1e-12
        assert projector_moment_residual(rho, H.projector()) <= 1e-9


def test_dimension_mismatch(rng):
    rho = random_density(3, rng)
    with pytest.raises(DimensionMismatch):
        expectation(rho, np.eye(4))
    H1, H2 = random_subspace(4, 1, rng), random_subspace(4, 2, rng)
    with pytest.raises(DimensionMismatch):
        moment_relation_residuals(rho, H1, H2)


def test_entropy_of_maximally_mixed():
    rho = DensityMatrix.maximally_mixed(5)
    assert abs(rho.entropy() - np.log(5)) <= 1e-10
