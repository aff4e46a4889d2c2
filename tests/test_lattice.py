import numpy as np
import pytest

from qlattice.distributivity import pi_deviation, varpi1, varpi2
from qlattice.errors import DimensionMismatch
from qlattice.golden import worked_example
from qlattice.lattice import (Subspace, between, commutes, inside, join,
                              join_all, leq, meet, meet_all, orthocomplement,
                              random_nested_pair, random_subspace)
from qlattice.mobius import mobius, mobius_dual
from qlattice.modular import psi_map
from qlattice.numerics import frobenius
from qlattice.rng import Xorshift64Star


def axis(d, i):
    v = np.zeros(d)
    v[i] = 1.0
    return Subspace.line(v)


def test_subspace_validates_orthonormality():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_from_vectors_orthonormalizes():
    H = Subspace.from_vectors(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))
    assert H.rank == 1


def test_projector_invariants(rng):
    for _ in range(10):
        H = random_subspace(5, rng.integer(0, 6), rng)
        P = H.projector()
        assert frobenius(P @ P - P) <= 1e-10
        assert frobenius(P - P.conj().T) <= 1e-10
        assert abs(np.trace(P).real - H.rank) <= 1e-10


def test_join_with_zero_is_identity_element(rng):
    H = random_subspace(4, 2, rng)
    assert join(H, Subspace.zero(4)).equiv(H)


def test_join_of_example_lines_has_rank_two():
    H1, H2, _, _ = worked_example()
    assert join(H1, H2).rank == 2


def test_join_of_axes_is_everything():
    J = join_all([axis(3, 0), axis(3, 1), axis(3, 2)])
    assert J.is_full()


def test_meet_idempotent(rng):
    H = random_subspace(4, 2, rng)
    assert meet(H, H).equiv(H)


def test_example_meets_are_zero():
    H1, H2, H3, _ = worked_example()
    assert meet(H1, H2).is_zero()
    assert meet(H2, H3).is_zero()
    assert meet(H1, H3).is_zero()


def test_meet_dimension_formula(rng):
    # two distinct planes in d=3 intersect in a line
    for _ in range(10):
        H1 = random_subspace(3, 2, rng)
        H2 = random_subspace(3, 2, rng)
        dim_join = join(H1, H2).rank
        assert meet(H1, H2).rank == H1.rank + H2.rank - dim_join


def test_meet_all_matches_pairwise(rng):
    subs = [random_subspace(4, 3, rng) for _ in range(3)]
    folded = meet(meet(subs[0], subs[1]), subs[2])
    assert meet_all(subs).equiv(folded)


def test_orthocomplement_extremes():
    assert orthocomplement(Subspace.zero(3)).is_full()
    assert orthocomplement(Subspace.full(3)).is_zero()


def test_orthocomplement_of_axis():
    perp = orthocomplement(axis(3, 0))
    expected = Subspace.from_vectors(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert perp.equiv(expected)


def test_orthocomplement_laws(rng):
    for _ in range(10):
        H = random_subspace(4, rng.integer(0, 5), rng)
        assert meet(H, H.perp()).is_zero()
        assert join(H, H.perp()).is_full()
        assert H.perp().perp().equiv(H)


def test_de_morgan_laws(rng):
    for _ in range(20):
        H1 = random_subspace(4, rng.integer(1, 4), rng)
        H2 = random_subspace(4, rng.integer(1, 4), rng)
        lhs = orthocomplement(meet(H1, H2)).projector()
        rhs = join(H1.perp(), H2.perp()).projector()
        assert frobenius(lhs - rhs) <= 1e-9
        lhs2 = orthocomplement(join(H1, H2)).projector()
        rhs2 = meet(H1.perp(), H2.perp()).projector()
        assert frobenius(lhs2 - rhs2) <= 1e-9


def test_leq_basics(rng):
    H = random_subspace(4, 2, rng)
    assert leq(Subspace.zero(4), H)
    assert leq(H, Subspace.full(4))


def test_leq_example_lines():
    H1, H2, _, _ = worked_example()
    assert leq(H1, join(H1, H2))
    assert not leq(H1, H2)


def test_commutes_with_own_complement(rng):
    H = random_subspace(4, 2, rng)
    assert commutes(H, H.perp())


def test_commutes_coordinate_subspaces():
    H1 = Subspace.from_vectors(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    H2 = axis(3, 1)
    assert commutes(H1, H2)


def test_example_pair_does_not_commute():
    H1, H2, _, _ = worked_example()
    assert not commutes(H1, H2)


def test_commutes_symmetric(rng):
    for _ in range(10):
        H1 = random_subspace(4, rng.integer(1, 4), rng)
        H2 = random_subspace(4, rng.integer(1, 4), rng)
        assert commutes(H1, H2) == commutes(H2, H1)


def test_commutes_near_parallel_lines_is_the_commutator_verdict():
    # nearly parallel lines reach the angles where the join and the meet
    # disagree on rank; commutes reads only the commutator, so it never raises
    H1 = axis(3, 0)
    for theta in np.logspace(-12, -2, 401):
        H2 = Subspace.line([np.cos(theta), np.sin(theta), 0.0])
        P1, P2 = H1.projector(), H2.projector()
        assert commutes(H1, H2) == (frobenius(P1 @ P2 - P2 @ P1) <= 1e-9)


def test_modularity_on_embedded_triples(rng):
    for _ in range(50):
        d = 3 + rng.integer(0, 4)
        r_big = rng.integer(0, d + 1)
        H1, H3 = random_nested_pair(d, rng.integer(0, r_big + 1), r_big, rng)
        H2 = random_subspace(d, rng.integer(1, d), rng)
        lhs = join(H1, meet(H2, H3)).projector()
        rhs = meet(join(H1, H2), H3).projector()
        assert frobenius(lhs - rhs) <= 1e-8


def test_distributivity_inequality(rng):
    for _ in range(20):
        d = 4
        H0, H1, H2 = (random_subspace(d, rng.integer(1, d), rng) for _ in range(3))
        assert leq(join(meet(H1, H2), H0), meet(join(H1, H0), join(H2, H0)))


def test_dimension_mismatch_raises(rng):
    with pytest.raises(DimensionMismatch):
        join(random_subspace(3, 1, rng), random_subspace(4, 1, rng))


def test_folds_check_dimensions_before_absorbing():
    # the zero (full) first argument would end the fold before any meet (join)
    line4 = axis(4, 0)
    with pytest.raises(DimensionMismatch):
        meet_all([Subspace.zero(3), line4])
    with pytest.raises(DimensionMismatch):
        join_all([Subspace.full(3), line4])


def test_inside_and_between_are_exact(rng):
    big = random_subspace(5, 4, rng)
    small = inside(big, 2, rng)
    assert leq(small, big)
    mid = between(small, big, 3, rng)
    assert leq(small, mid) and leq(mid, big)
    assert mid.rank == 3


def test_zero_rank_draws_consume_nothing(rng):
    """Rank-0 requests return the zero space (between: the lower basis
    itself) and leave the generator where a twin that never drew is."""
    lower, upper = random_nested_pair(5, 2, 4, rng)
    calls = [(lambda g: random_subspace(5, 0, g), np.zeros((5, 0))),
             (lambda g: inside(upper, 0, g), np.zeros((5, 0))),
             (lambda g: between(lower, upper, lower.rank, g), lower.basis)]
    for call, basis in calls:
        gen, twin = Xorshift64Star(7), Xorshift64Star(7)
        H = call(gen)
        assert np.array_equal(H.basis, basis)
        assert np.array_equal(gen.complex_gaussian_matrix(2, 2),
                              twin.complex_gaussian_matrix(2, 2))


def test_zero_projector_is_exactly_zero():
    P = Subspace.zero(4).projector()
    assert P.shape == (4, 4) and not P.any()


@pytest.mark.parametrize("build, arity", [
    pytest.param(mobius, 3, id="mobius"),
    pytest.param(mobius_dual, 3, id="mobius_dual"),
    pytest.param(lambda subs: varpi1(*subs), 3, id="varpi1"),
    pytest.param(lambda subs: varpi2(*subs), 3, id="varpi2"),
    pytest.param(lambda subs: pi_deviation(*subs), 2, id="pi_deviation"),
    pytest.param(lambda subs: psi_map(*subs), 2, id="psi_map"),
])
def test_operator_builders_return_lattice_operators(build, arity, rng):
    subs = [random_subspace(4, rank, rng) for rank in (1, 2, 3)[:arity]]
    op = build(subs)
    assert np.array_equal(op.matrix, op.matrix.conj().T)  # exactly Hermitian
    assert not op.matrix.flags.writeable
    assert op.arguments == tuple(subs)
    assert op.trace == float(np.trace(op.matrix).real)
