import numpy as np
import pytest

from qlattice.errors import DimensionMismatch, PreconditionViolated
from qlattice.golden import worked_example
from qlattice.lattice import (Subspace, join, meet, random_subspace)
from qlattice.mobius import mobius
from qlattice.modular import (Interval, is_lower_transpose,
                              membership_residuals, proj_map, psi_map,
                              random_sandwiched_member, sandwich_residual,
                              spectral_p1, transpose_down, transpose_pair,
                              transpose_up)
from qlattice.numerics import frobenius
from qlattice.sweeps import (REGISTRY, _projective, p1_residuals,
                             p2_residuals, p3_residuals,
                             transpose_roundtrip_residuals)
from qlattice.tolerances import Tolerance


def generic_pair(rng, d=4):
    return (random_subspace(d, rng.integer(1, d), rng),
            random_subspace(d, rng.integer(1, d), rng))


def test_interval_requires_nesting(rng):
    H1, H2 = generic_pair(rng)
    with pytest.raises(PreconditionViolated):
        Interval(H1, meet(H1, H2))  # generic meet is strictly smaller


def test_interval_nesting_uses_tol():
    # the line (1, 1e-6, 0) lies in e1 at identity_eps = 1e-3, not at 1e-9
    loose = Tolerance(identity_eps=1e-3)
    lo, up = Subspace.line([1, 1e-6, 0]), Subspace.line([1, 0, 0])
    assert Interval(lo, up, loose).contains(lo, loose)
    # tol serves the nesting check only and is not kept
    assert not hasattr(Interval(lo, up, loose), "tol")
    with pytest.raises(PreconditionViolated):
        Interval(lo, up)
    # the pair's meet is a line of rank 1 between the two, nested only at 1e-3
    A, B = transpose_pair(lo, up, loose)
    assert (A.upper, B.lower) == (lo, up)
    with pytest.raises(PreconditionViolated):
        transpose_pair(lo, up)


def test_mixed_dimensions_raise(rng):
    H3, H4 = Subspace.full(3), Subspace.full(4)
    with pytest.raises(DimensionMismatch):
        Interval(Subspace.zero(3), H4)
    with pytest.raises(DimensionMismatch):
        is_lower_transpose(Interval(Subspace.zero(3), H3), Interval(Subspace.zero(4), H4))


def test_lower_transpose_reflexive(rng):
    H1, H2 = generic_pair(rng)
    iv = Interval(meet(H1, H2), H1)
    assert is_lower_transpose(iv, iv)


def test_lower_transpose_of_constructed_pair(rng):
    for _ in range(10):
        H1, H2 = generic_pair(rng)
        A, B = transpose_pair(H1, H2)
        assert is_lower_transpose(A, B)


def test_lower_transpose_fails_for_generic_lines(rng):
    H1 = random_subspace(4, 1, rng)
    H2 = random_subspace(4, 1, rng)
    A = Interval(Subspace.zero(4), H1)
    B = Interval(Subspace.zero(4), H2)
    assert not is_lower_transpose(A, B)


def test_transpose_antisymmetry(rng):
    H1, H2 = generic_pair(rng)
    A, B = transpose_pair(H1, H2)
    if is_lower_transpose(B, A):  # both directions force equality
        assert A.lower.equiv(B.lower) and A.upper.equiv(B.upper)


def test_transpose_transitivity(rng):
    # chain built by the membership construction
    H1, H2 = generic_pair(rng, 5)
    h = random_sandwiched_member(H1, H2, rng)
    first = Interval(meet(H1, H2), H2)
    middle = Interval(h, join(h, H2))
    last = Interval(H1, join(H1, H2))
    if is_lower_transpose(first, middle) and is_lower_transpose(middle, last):
        assert is_lower_transpose(first, last)


def test_transpose_map_endpoints(rng):
    H1, H2 = generic_pair(rng)
    low = meet(H1, H2)
    assert transpose_up(low, H1, H2).equiv(H2)
    assert transpose_up(H1, H1, H2).equiv(join(H1, H2))
    assert transpose_down(H2, H1, H2).equiv(low)


def test_transpose_roundtrip_random(rng):
    for _ in range(15):
        d = 4 + rng.integer(0, 2)
        H1 = random_subspace(d, 2 + rng.integer(0, 2), rng)
        H2 = random_subspace(d, rng.integer(1, d), rng)
        h = random_sandwiched_member(H1, H2, rng)
        assert transpose_roundtrip_residuals(h, H1, H2)["pair_roundtrip"] <= 1e-9


def test_transpose_map_precondition(rng):
    H1, H2 = generic_pair(rng)
    outside = random_subspace(4, 3, rng)
    with pytest.raises(PreconditionViolated):
        transpose_up(outside, H1, H2)


def test_membership_conditions(rng):
    for _ in range(10):
        H1, H2 = generic_pair(rng, 5)
        h = random_sandwiched_member(H1, H2, rng)
        res = membership_residuals(h, H1, H2)
        assert all(v <= 1e-9 for v in res.values())


def test_sandwich_lemma_via_membership_construction(rng):
    for _ in range(10):
        H1, H2 = generic_pair(rng, 5)
        h = random_sandwiched_member(H1, H2, rng)
        first = Interval(meet(H1, H2), H2)
        middle = Interval(h, join(h, H2))
        last = Interval(H1, join(H1, H2))
        assert sandwich_residual(first, middle, last) <= 1e-9


def test_sandwich_lemma_degenerate_chain(rng):
    H1, H2 = generic_pair(rng)
    iv = Interval(meet(H1, H2), H1)
    assert sandwich_residual(iv, iv, iv) <= 1e-12


def test_proj_map_extremes():
    assert frobenius(proj_map(Interval(Subspace.zero(3), Subspace.zero(3)))) <= 1e-14
    full = proj_map(Interval(Subspace.zero(3), Subspace.full(3)))
    assert frobenius(full - np.eye(3)) <= 1e-14


def test_proj_map_is_projector(rng):
    for _ in range(10):
        H1, H2 = generic_pair(rng, 5)
        h = random_sandwiched_member(H1, H2, rng)
        P = proj_map(Interval(meet(H1, H2), h))
        assert frobenius(P @ P - P) <= 1e-10
        assert abs(np.trace(P).real - (h.rank - meet(H1, H2).rank)) <= 1e-10


def test_proj_map_example_interval():
    H1, H2, _, _ = worked_example()
    P = proj_map(Interval(meet(H1, H2), H1))
    assert abs(np.trace(P).real - 1.0) <= 1e-10


def test_psi_map_equals_mobius(rng):
    H1, H2, _, _ = worked_example()
    assert frobenius(psi_map(H1, H2).matrix - mobius([H1, H2]).matrix) <= 1e-9
    for _ in range(10):
        A, B = generic_pair(rng, 5)
        assert frobenius(psi_map(A, B).matrix - mobius([A, B]).matrix) <= 1e-9
        assert frobenius(psi_map(A, B).matrix - psi_map(B, A).matrix) <= 1e-9


def test_psi_map_commuting_pair():
    e = np.eye(3)
    H1 = Subspace.from_vectors(e[:, :2])
    H2 = Subspace.line(e[:, 1])
    assert frobenius(psi_map(H1, H2).matrix) <= 1e-12


def test_p2_endpoint_cases(rng):
    H1, H2 = generic_pair(rng)
    res = p2_residuals(H1, H2, H1, meet(H1, H2))
    assert res["telescope"] <= 1e-11
    assert res["telescope_second"] <= 1e-11


def test_p2_random_members(rng):
    for _ in range(10):
        d = 5
        H1 = random_subspace(d, 3, rng)
        H2 = random_subspace(d, rng.integer(1, d), rng)
        h_a = random_sandwiched_member(H1, H2, rng)
        h_b = random_sandwiched_member(H1, H2, rng)
        res = p2_residuals(H1, H2, h_a, h_b)
        assert all(v <= 1e-9 for v in res.values())


def test_p2_rejects_member_outside(rng):
    H1 = random_subspace(4, 1, rng)
    H2 = random_subspace(4, 1, rng)
    outside = random_subspace(4, 2, rng)
    with pytest.raises(PreconditionViolated):
        p2_residuals(H1, H2, outside, H1)
    with pytest.raises(PreconditionViolated):
        p2_residuals(H1, H2, H1, outside)


def test_p3_self_projective_is_zero(rng, tol):
    H1p, H2, _, _ = _projective(5, rng, tol)
    res = p3_residuals(H1p, H2, H1p, H1p)
    assert res["endpoint"] <= 1e-11


def test_p3_random(rng, tol):
    for _ in range(10):
        res = p3_residuals(*_projective(5, rng, tol))
        assert all(v <= 1e-9 for v in res.values())


def test_p3_endpoint_member_reduces(rng, tol):
    H1p, H2, H3p, _ = _projective(5, rng, tol)
    res = p3_residuals(H1p, H2, H3p, h=H1p)
    assert abs(res["member"] - res["endpoint"]) <= 1e-10


def test_p3_preconditions():
    e = np.eye(4)
    H1p = Subspace.line(e[:, 0] + e[:, 1])
    H2 = Subspace.line(e[:, 1])
    plane = Subspace.from_vectors(e[:, :2])   # H1' v H2
    # H3' = e3 is not inside H1' v H2
    with pytest.raises(PreconditionViolated, match="not contained"):
        p3_residuals(H1p, H2, Subspace.line(e[:, 2]), H1p)
    # H3' = H2 lies inside, but H3' v H2 = H2 falls short of H1' v H2
    with pytest.raises(PreconditionViolated, match="does not reach"):
        p3_residuals(H1p, H2, H2, H1p)
    # h = e1 is not inside [H1' ^ H2, H1'] = [0, H1']
    with pytest.raises(PreconditionViolated, match="h outside"):
        p3_residuals(H1p, H2, plane, Subspace.line(e[:, 0]))


def test_spectral_p1_commuting_pair():
    e = np.eye(3)
    H1 = Subspace.from_vectors(e[:, :2])
    H2 = Subspace.line(e[:, 0])
    report = spectral_p1(H1, H2)
    assert np.max(np.abs(report.eigenvalues)) <= 1e-10


def p1_holds(H1, H2):
    """The P1 verdict: p1_residuals inside the p1 tolerances of REGISTRY."""
    _, limits = REGISTRY["p1"]
    return all(value <= limits[name] for name, value in p1_residuals(H1, H2).items())


def test_spectral_p1_example():
    H1, H2, _, _ = worked_example()
    report = spectral_p1(H1, H2)
    assert report.required_zero_count == 1
    assert p1_holds(H1, H2)


def test_spectral_p1_random_lines_high_dimension(rng):
    for _ in range(10):
        H1 = random_subspace(6, 1, rng)
        H2 = random_subspace(6, 1, rng)
        assert p1_holds(H1, H2)
        assert spectral_p1(H1, H2).zero_count >= 4
