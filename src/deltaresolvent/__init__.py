"""Resolvents of one-dimensional multi-particle contact interactions.

Distinguishable particles on a periodic grid, pairwise attractive or
repulsive contact couplings approached through narrow renormalized
wells.  The package assembles the resolvent four ways -- dense direct
solve, block factorization at positive width, its zero-width limit, and
the hyperplane-trace route -- and ships the inequality audits that keep
the factorized series honest.
"""

__version__ = "0.1.0"

from .blocks import (DiagonalBlock, LambdaMatrix, OffDiagonalBlock,
                     invert_lambda, pair_class_multiplier,
                     verify_block_convergence)
from .bump import DEFAULT_PROFILE, BumpProfile, build_hamiltonian, coupling_map
from .errors import (AboveThreshold, ConfigError, DeltaResolventError,
                     NoConvergence, PotentialOverflowsBox, SeriesDiverging,
                     ShiftTooCloseToSpectrum, SingularAtOrigin,
                     UnresolvedBump)
from .forms import (apply_trace, evaluate_form, fourier_trace_identities,
                    h1_norm_squared, momentum_trace, trace_adjoint)
from .greens import greens_closed, greens_quadrature
from .grid import (Grid, free_resolvent, lowest_eigenvalues, random_band_limited,
                   shifted_solver)
from .resolvent import (DirectAssembly, FactoredAssembly, TraceAssembly,
                        convergence_sweep, ground_energy, pole_scan)
from .system import SystemSpec, bound_constants, enumerate_pairs, parse_masses

__all__ = [
    "AboveThreshold",
    "BumpProfile",
    "ConfigError",
    "DEFAULT_PROFILE",
    "DeltaResolventError",
    "DiagonalBlock",
    "DirectAssembly",
    "FactoredAssembly",
    "Grid",
    "LambdaMatrix",
    "NoConvergence",
    "OffDiagonalBlock",
    "PotentialOverflowsBox",
    "SeriesDiverging",
    "ShiftTooCloseToSpectrum",
    "SingularAtOrigin",
    "SystemSpec",
    "TraceAssembly",
    "UnresolvedBump",
    "apply_trace",
    "bound_constants",
    "build_hamiltonian",
    "convergence_sweep",
    "coupling_map",
    "enumerate_pairs",
    "evaluate_form",
    "fourier_trace_identities",
    "free_resolvent",
    "greens_closed",
    "greens_quadrature",
    "ground_energy",
    "h1_norm_squared",
    "invert_lambda",
    "lowest_eigenvalues",
    "momentum_trace",
    "pair_class_multiplier",
    "parse_masses",
    "pole_scan",
    "random_band_limited",
    "shifted_solver",
    "trace_adjoint",
    "verify_block_convergence",
]
