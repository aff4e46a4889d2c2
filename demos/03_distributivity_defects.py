"""
Distributivity defects and the law of total probability
========================================================

The subspace lattice is modular but not distributive.  Two projectors
measure the gap in the distributive inequalities; a third measures how far
the law of total probability fails when conditioning on a subspace and its
complement.  All three vanish exactly in commuting (Boolean) situations.
"""

import numpy as np

from qlattice import (Subspace, Xorshift64Star, mobius, orthocomplement,
                      pi_deviation, random_subspace, varpi1, varpi2, meet)
from qlattice.golden import worked_example
from qlattice.sweeps import varpi_link_residuals

np.set_printoptions(precision=3, suppress=True)
rng = Xorshift64Star(3)

# %% coordinate subspaces commute: all defects vanish
e = np.eye(3)
A = Subspace.from_vectors(e[:, :2])
B = Subspace.line(e[:, 1])
C = Subspace.line(e[:, 2])
print("commuting case:",
      np.linalg.norm(varpi1(A, B, C).matrix),
      np.linalg.norm(varpi2(A, B, C).matrix))

# %% the worked example: nonzero defects, and varpi2 collapses onto pi
H1, H2, H3, _ = worked_example()
vp1 = varpi1(H1, H2, H3)
vp2 = varpi2(H1, H2, H3)
pi = pi_deviation(H3, H1)
print("varpi1(H1,H2|H3):")
print(vp1.matrix.real)
print("varpi2(H1,H2|H3) (= pi(H3;H1) here):")
print(vp2.matrix.real)
print("agreement:", np.linalg.norm(vp2.matrix - pi.matrix))

# %% both defects are genuine projectors
for name, dev in (("varpi1", vp1), ("varpi2", vp2)):
    M = dev.matrix
    print(f"{name} idempotence defect:", np.linalg.norm(M @ M - M))

# %% they decompose exactly into non-additivity operators
for name, val in varpi_link_residuals(H1, H2, H3).items():
    print(f"link {name}: {val:.2e}")

# %% total probability: pi = distributivity part + additivity part
H0 = random_subspace(4, 2, rng)
Hc = random_subspace(4, 2, rng)
Hcp = orthocomplement(Hc)
split = (varpi2(Hc, Hcp, H0).matrix
         + mobius([meet(Hc, H0), meet(Hcp, H0)]).matrix)
print("pi decomposition residual (random d=4):",
      np.linalg.norm(pi_deviation(H0, Hc).matrix - split))
