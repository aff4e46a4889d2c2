import importlib

import numpy as np
import pytest

from qlattice.errors import DimensionMismatch, TooManyArguments
from qlattice.golden import worked_example
from qlattice.lattice import (Subspace, join, join_all, meet, meet_all,
                              random_nested_pair, random_subspace)
from qlattice.mobius import (commutator_identity_residual, mobius,
                             mobius_dual, perp_negation_residual,
                             triple_identity_residuals)
from qlattice.numerics import frobenius, hermitian_eig
from qlattice.observables import DensityMatrix, expectation


def test_pair_matches_four_term_formula(rng):
    for _ in range(10):
        H1 = random_subspace(4, rng.integer(1, 4), rng)
        H2 = random_subspace(4, rng.integer(1, 4), rng)
        direct = (join(H1, H2).projector() + meet(H1, H2).projector()
                  - H1.projector() - H2.projector())
        assert frobenius(mobius([H1, H2]).matrix - direct) <= 1e-12


def test_nested_pair_vanishes(rng):
    small, big = random_nested_pair(5, 2, 4, rng)
    assert frobenius(mobius([small, big]).matrix) <= 1e-12


def test_triple_matches_explicit_expansion(rng):
    H1, H2, H3 = (random_subspace(4, rng.integer(1, 4), rng) for _ in range(3))
    expected = (join(join(H1, H2), H3).projector()
                - join(H1, H2).projector() - join(H1, H3).projector()
                - join(H2, H3).projector()
                + H1.projector() + H2.projector() + H3.projector()
                - meet(meet(H1, H2), H3).projector())
    assert frobenius(mobius([H1, H2, H3]).matrix - expected) <= 1e-12
    expected_dual = (meet(meet(H1, H2), H3).projector()
                     - meet(H1, H2).projector() - meet(H1, H3).projector()
                     - meet(H2, H3).projector()
                     + H1.projector() + H2.projector() + H3.projector()
                     - join(join(H1, H2), H3).projector())
    assert frobenius(mobius_dual([H1, H2, H3]).matrix - expected_dual) <= 1e-12


def test_dual_equals_direct_for_pairs(rng):
    H1 = random_subspace(3, 1, rng)
    H2 = random_subspace(3, 2, rng)
    assert frobenius(mobius([H1, H2]).matrix - mobius_dual([H1, H2]).matrix) <= 1e-12


def test_chain_vanishes(rng):
    a, b = random_nested_pair(5, 1, 3, rng)
    c = Subspace.full(5)
    assert frobenius(mobius([a, b, c]).matrix) <= 1e-11
    assert frobenius(mobius_dual([a, b, c]).matrix) <= 1e-11


def test_permutation_invariance(rng):
    subs = [random_subspace(4, rng.integer(1, 4), rng) for _ in range(4)]
    base = mobius(subs).matrix
    base_dual = mobius_dual(subs).matrix
    orders = [(1, 0, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1)]
    for order in orders:
        perm = [subs[i] for i in order]
        assert frobenius(mobius(perm).matrix - base) <= 1e-11
        assert frobenius(mobius_dual(perm).matrix - base_dual) <= 1e-11


def test_pair_trace_vanishes(rng):
    for _ in range(10):
        H1 = random_subspace(5, rng.integer(1, 5), rng)
        H2 = random_subspace(5, rng.integer(1, 5), rng)
        assert abs(mobius([H1, H2]).trace) <= 1e-10


def test_example_pair_operator_entries():
    # frozen spot values, cross-checked against the recorded reference table
    H1, H2, _, _ = worked_example()
    D = mobius([H1, H2]).matrix.real
    assert abs(D[0, 0] - 0.019) <= 5e-3
    assert abs(D[2, 2] - (-0.422)) <= 5e-3
    assert abs(D[0, 2] - (-0.480)) <= 5e-3


def test_example_triple_operator_against_independent_oracle():
    """The triple operators recomputed via an SVD/eigh-only oracle."""
    H1, H2, H3, _ = worked_example()

    def orth_svd(A):
        U, s, _ = np.linalg.svd(A, full_matrices=False)
        return U[:, s > 1e-9]

    def proj_of(cols):
        Q = orth_svd(np.hstack(cols))
        return Q @ Q.conj().T

    def meet_proj(Ps):
        S = sum(Ps)
        w, V = np.linalg.eigh(S)
        K = V[:, np.abs(w - len(Ps)) < 1e-9]
        return K @ K.conj().T

    bases = [H1.basis, H2.basis, H3.basis]
    projs = [b @ b.conj().T for b in bases]
    oracle = (proj_of(bases)
              - proj_of([bases[0], bases[1]]) - proj_of([bases[0], bases[2]])
              - proj_of([bases[1], bases[2]])
              + sum(projs) - meet_proj(projs))
    D = mobius([H1, H2, H3]).matrix
    assert frobenius(D - oracle) <= 1e-10
    # frozen spot values of the true operator
    assert abs(D[0, 0].real - (-0.1646)) <= 5e-4
    assert abs(D[2, 2].real - 0.1488) <= 5e-4
    assert abs(np.trace(D).real - (-1.0)) <= 1e-9  # join of the triple is a plane


@pytest.mark.parametrize("n", [6, 7, 8])
@pytest.mark.parametrize("d", [3, 4, 6])
def test_wide_tuples_match_inclusion_exclusion(d, n, rng):
    """Wide mixed-rank tuples, with the full space, the zero space and a
    repeated argument, against a join_all/meet_all sum over every subset."""
    subs = [random_subspace(d, rng.integer(1, d), rng) for _ in range(n - 3)]
    subs.insert(n % 3, Subspace.full(d))
    subs.insert(1, Subspace.zero(d))
    subs.append(subs[0])
    for build, over, last in ((mobius, join_all, meet_all),
                              (mobius_dual, meet_all, join_all)):
        ref = (-1) ** n * last(subs).projector()
        for mask in range(1, 1 << n):
            members = [subs[j] for j in range(n) if mask >> j & 1]
            ref = ref + (-1) ** (n - len(members)) * over(members).projector()
        assert frobenius(build(subs).matrix - ref) <= 1e-10


def _count_calls(monkeypatch, name):
    """Count calls to the join or meet that qlattice.mobius looks up."""
    module = importlib.import_module("qlattice.mobius")
    original = getattr(module, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_full_argument_saturates_every_superset_join(monkeypatch, rng):
    # the full space sits at bit 0, so every subset holding it is absorbed
    # through a smaller subset other than the one without its lowest bit;
    # only the 2^6 - 7 subsets of two or more lines are joined
    lines = [random_subspace(8, 1, rng) for _ in range(6)]
    calls = _count_calls(monkeypatch, "join")
    mobius([Subspace.full(8)] + lines)
    assert calls[0] <= 2 ** 6 - 7


def test_zero_argument_saturates_every_superset_meet(monkeypatch, rng):
    hyperplanes = [random_subspace(8, 7, rng) for _ in range(6)]
    calls = _count_calls(monkeypatch, "meet")
    mobius_dual([Subspace.zero(8)] + hyperplanes)
    assert calls[0] <= 2 ** 6 - 7


def test_triple_trace_counts_subspace_dimensions(rng):
    # independent lines: all subset joins have full expected dimension, so
    # the alternating dimension count telescopes to zero
    lines = [random_subspace(5, 1, rng) for _ in range(3)]
    assert abs(mobius(lines).trace) <= 1e-9


def test_commutator_identity_commuting_pair():
    H1 = Subspace.line(np.array([1.0, 0.0, 0.0]))
    H2 = Subspace.from_vectors(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    assert commutator_identity_residual(H1, H2) <= 1e-12


def test_commutator_identity_example_and_random(rng):
    H1, H2, _, _ = worked_example()
    assert commutator_identity_residual(H1, H2) <= 1e-9
    for _ in range(10):
        A = random_subspace(5, rng.integer(1, 5), rng)
        B = random_subspace(5, rng.integer(1, 5), rng)
        assert commutator_identity_residual(A, B) <= 1e-9


def test_triple_identities_example():
    H1, H2, H3, _ = worked_example()
    res = triple_identity_residuals(H1, H2, H3)
    assert res["sum_rule"] <= 1e-9
    assert res["sandwich"] <= 1e-9
    assert res["double_commutator"] <= 1e-9


def test_triple_identities_chain_case(rng):
    small, big = random_nested_pair(4, 1, 3, rng)
    other = random_subspace(4, 2, rng)
    res = triple_identity_residuals(small, big, other)
    assert res["chain_direct"] <= 1e-11
    assert res["chain_dual"] <= 1e-11


def test_triple_identities_orthogonal_axes():
    axes = [Subspace.line(np.eye(3)[:, i]) for i in range(3)]
    res = triple_identity_residuals(*axes)
    assert all(v <= 1e-12 for v in res.values())


def test_perp_negation(rng):
    for _ in range(10):
        H1 = random_subspace(4, rng.integer(1, 4), rng)
        H2 = random_subspace(4, rng.integer(1, 4), rng)
        assert perp_negation_residual(H1, H2) <= 1e-10


def test_sign_classification_flips_with_state():
    H1, H2, _, _ = worked_example()
    D = mobius([H1, H2]).matrix
    w, V = hermitian_eig(D)
    lo = DensityMatrix.pure(V[:, 0])    # most negative eigenvalue
    hi = DensityMatrix.pure(V[:, -1])   # most positive eigenvalue
    assert expectation(lo, D) < -1e-6
    assert expectation(hi, D) > 1e-6


def test_argument_validation(rng):
    H3 = random_subspace(3, 1, rng)
    H4 = random_subspace(4, 1, rng)
    with pytest.raises(DimensionMismatch):
        mobius([H3, H4])
    with pytest.raises(ValueError):
        mobius([H3])
    with pytest.raises(TooManyArguments):
        mobius([H3] * 21)
