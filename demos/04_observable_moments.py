"""
Measuring the defect operators
==============================

Every operator here is Hermitian, hence observable.  Against a fixed state
the mean of the pair operator decides whether the projector probabilities
read as lower (belief-like) or upper (plausibility-like) values, and the
means/variances of the constituent projectors reconstruct its own moments
through exact relations.
"""

import numpy as np

from qlattice import (DensityMatrix, Xorshift64Star, ds_classify, expectation,
                      mobius, random_density, random_subspace, stddev,
                      hermitian_eig)
from qlattice.golden import worked_example
from qlattice.sweeps import moment_relation_residuals

rng = Xorshift64Star(4)

# %% the worked example against the uniform superposition state
H1, H2, H3, rho = worked_example()
D12 = mobius([H1, H2]).matrix
print(f"E[D(1,2)] = {expectation(rho, D12):+.3f}")
print(f"Delta[D(1,2)] = {stddev(rho, D12):.3f}")
print("classification:", ds_classify(rho, H1, H2))

# %% a state concentrated on the positive part of the spectrum flips it
w, V = hermitian_eig(D12)
rho_up = DensityMatrix.pure(V[:, -1])
print("eigenvalues:", np.round(w, 3))
print("classification on top eigenvector:", ds_classify(rho_up, H1, H2))

# %% mean and variance relations, on random data
for _ in range(3):
    d = 4
    state = random_density(d, rng)
    A = random_subspace(d, rng.integer(1, d), rng)
    B = random_subspace(d, rng.integer(1, d), rng)
    res = moment_relation_residuals(state, A, B)
    print(f"moment relations: mean {res['mean']:.2e}  variance {res['variance']:.2e}")
