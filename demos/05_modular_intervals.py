"""
Interval sublattices and modular constraints
============================================

Modularity gives a bijection between the transpose intervals
[H1^H2, H1] and [H2, H1vH2] (join with H2 one way, meet with H1 back).
Pushing projectors through these bijections telescopes the non-additivity
operators and constrains their spectra.
"""

import numpy as np

from qlattice import (Xorshift64Star, mobius, proj_map, psi_map,
                      random_subspace, spectral_p1)
from qlattice.modular import (is_lower_transpose, random_sandwiched_member,
                              transpose_pair, transpose_up, transpose_down)
from qlattice.sweeps import p2_residuals

rng = Xorshift64Star(5)

# %% the canonical transpose pair of two subspaces
H1 = random_subspace(5, 3, rng)
H2 = random_subspace(5, 2, rng)
A, B = transpose_pair(H1, H2)
print("lower interval ranks:", A.lower.rank, "->", A.upper.rank)
print("upper interval ranks:", B.lower.rank, "->", B.upper.rank)
print("is lower transpose:", is_lower_transpose(A, B))

# %% the bijection and its inverse, on a random interval member
h = random_sandwiched_member(H1, H2, rng)
hp = transpose_up(h, H1, H2)
back = transpose_down(hp, H1, H2)
print("member rank:", h.rank, " image rank:", hp.rank)
print("roundtrip residual:", np.linalg.norm(back.projector() - h.projector()))

# %% interval projectors and the operator they induce
P = proj_map(A)
print("interval projector trace:", np.trace(P).real, "(upper rank - lower rank)")
print("psi vs mobius:",
      np.linalg.norm(psi_map(H1, H2).matrix - mobius([H1, H2]).matrix))

# %% telescoping through a sandwiched member and through the interval's top
res = p2_residuals(H1, H2, h, H1)
print("telescoping residual:", res["telescope"])

# %% spectral constraints on the pair operator
report = spectral_p1(H1, H2)
print("eigenvalues:", np.round(report.eigenvalues, 4))
print("|sum|:", report.abs_sum,
      " zero multiplicity:", report.zero_count,
      " required:", report.required_zero_count)
