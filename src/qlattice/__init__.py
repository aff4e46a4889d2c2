"""Numerical engine for the lattice of subspaces of a finite-dimensional
complex Hilbert space: non-additivity (Moebius) operators, distributivity
and total-probability defect projectors, modular interval constraints, and
coherent projectors of finite quantum systems.
"""

from .classical import (FiniteMeasure, MassFunction, belief_plausibility,
                        mobius_delta, total_probability_residual)
from .coherent import (CoherentAggregate, CoherentFamily, generic_fiducial,
                       mixed_coherent_state)
from .distributivity import pi_deviation, varpi1, varpi2
from .lattice import (LatticeOperator, Subspace, commutes, join, join_all,
                      leq, meet, meet_all, orthocomplement, random_subspace)
from .mobius import mobius, mobius_dual
from .modular import (Interval, SpectralReport, is_lower_transpose, proj_map,
                      psi_map, spectral_p1, transpose_down, transpose_up)
from .numerics import (EigenDecomposition, hermitian_eig, kernel,
                       orthonormal_range)
from .observables import (DensityMatrix, ds_classify, expectation,
                          random_density, stddev)
from .rng import Xorshift64Star
from .tolerances import Tolerance, default_tolerance

__version__ = "0.1.0"

__all__ = [
    "CoherentAggregate", "CoherentFamily", "DensityMatrix",
    "EigenDecomposition", "FiniteMeasure", "Interval", "LatticeOperator",
    "MassFunction", "SpectralReport", "Subspace",
    "Tolerance", "Xorshift64Star", "belief_plausibility", "commutes",
    "default_tolerance", "ds_classify", "expectation", "generic_fiducial",
    "hermitian_eig", "is_lower_transpose", "join",
    "join_all", "kernel", "leq", "meet", "meet_all", "mixed_coherent_state",
    "mobius", "mobius_delta", "mobius_dual", "orthocomplement",
    "orthonormal_range", "pi_deviation", "proj_map", "psi_map",
    "random_density", "random_subspace", "spectral_p1", "stddev",
    "total_probability_residual", "transpose_down", "transpose_up",
    "varpi1", "varpi2",
]
