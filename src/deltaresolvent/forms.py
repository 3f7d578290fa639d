"""Hyperplane traces and the quadratic form of the contact system.

The limiting object underneath all assemblies replaces each pair
potential by a restriction to its collision hyperplane.  This module
provides that restriction (and its adjoint) on the grid, the exact
Fourier commutation identities it satisfies, the Sobolev-type norm
controlling it, and the sesquilinear form

    t(phi, psi) = sum_j (2 m_j)^{-1} <d_j phi, d_j psi>
                  - g sum_pairs <trace phi, trace psi>

whose resolvent the assemblies compute.
"""

import numpy as np
import scipy.fft

from . import grid as gridmod
from . import system as sysmod


def apply_trace(grid, spec, pair, field):
    """Restrict a lab field to the collision hyperplane of one pair.

    The result is the reduced field over (pair center of mass,
    spectators by ascending label) in position representation.  Trailing
    axes beyond the lab configuration ride along as a batch.  Both
    members sit at the center of mass on the hyperplane, a grid point,
    so the restriction is the diagonal f[k, k, ...] of the pair axes.
    """
    f = gridmod.lab_axes_to_front(field, pair)
    idx = np.arange(grid.npoints)
    return f[idx, idx]


def trace_adjoint(grid, spec, pair, reduced):
    """Adjoint of :func:`apply_trace` between the weighted inner products.

    Maps a reduced field back to a (distributional) lab field so that
    <trace_adjoint u, psi>_lab = <u, apply_trace psi>_reduced exactly on
    the grid: the diagonal scatter onto f[k, k, ...], zero off the pair's
    collision hyperplane, divided by the grid spacing.
    """
    reduced = np.asarray(reduced, dtype=complex)
    idx = np.arange(grid.npoints)
    embedded = np.zeros(idx.shape + reduced.shape, dtype=complex)
    embedded[idx, idx] = reduced / grid.h
    return gridmod.lab_axes_from_front(embedded, pair)


def momentum_trace(grid, field):
    """Integrate out the leading momentum axis with continuum calibration.

    On momentum data this is the transform-side expression of the
    position-space hyperplane restriction: (2 pi)^{-1/2} times the
    Riemann sum over the leading wavenumber lattice.
    """
    dp = 2.0 * np.pi / grid.box
    return (dp / np.sqrt(2.0 * np.pi)) * np.sum(field, axis=0)


def fourier_trace_identities(grid, field):
    """Residuals of the three trace/transform commutation identities.

    ``field`` lives on a pair-frame lattice whose leading axis is the
    relative coordinate; the remaining axes are the reduced
    configuration.  With the calibrated transform the identities are
    exact on the grid, so the returned residuals should sit at machine
    precision:

      * ``transform_after``: transforming the reduced axes commutes with
        restricting the relative coordinate;
      * ``full_transform``: restriction equals the calibrated momentum
        sum after transforming all axes;
      * ``relative_only``: the momentum sum applied to the transform of
        the relative axis alone reproduces the restriction.
    """
    n = field.ndim
    row = grid.npoints // 2
    reduced_axes = tuple(range(1, n))
    restricted = field[row]

    lhs1 = gridmod.to_momentum(grid, restricted,
                               axes=tuple(range(n - 1)))
    rhs1 = gridmod.to_momentum(grid, field, axes=reduced_axes)[row]

    full = gridmod.to_momentum(grid, field, axes=tuple(range(n)))
    rhs2 = momentum_trace(grid, full)

    rel = gridmod.to_momentum(grid, field, axes=(0,))
    rhs3 = momentum_trace(grid, rel)

    return {
        "transform_after": float(np.max(np.abs(lhs1 - rhs1))),
        "full_transform": float(np.max(np.abs(lhs1 - rhs2))),
        "relative_only": float(np.max(np.abs(restricted - rhs3))),
    }


def _parseval(grid, symbol, phi, psi):
    """<phi, symbol(p) psi> on the lattice, summed over Fourier coefficients
    for a symbol >= 0.  Its square root weights both sides, so swapping phi
    and psi conjugates the value exactly."""
    root = np.sqrt(symbol)
    weight = (grid.h / grid.npoints) ** phi.ndim
    return weight * complex(np.vdot(root * scipy.fft.fftn(phi), root * scipy.fft.fftn(psi)))


def h1_norm_squared(grid, field):
    """Squared Sobolev norm ||f||^2 + sum_j ||d_j f||^2, by Parseval."""
    return _parseval(grid, 1.0 + gridmod.kinetic_multiplier(grid, (0.5,) * field.ndim),
                     field, field).real


def evaluate_form(grid, spec, phi, psi):
    """The sesquilinear form t(phi, psi) of the contact system.

    Kinetic part by Parseval with the free symbol (grid.kinetic_multiplier);
    the coupling part subtracts g times the reduced inner products of the
    hyperplane traces over all pairs.
    """
    n = spec.n
    if phi.ndim != n or psi.ndim != n:
        raise ValueError("form arguments must be full lab fields")
    total = _parseval(grid, gridmod.kinetic_multiplier(grid, spec.masses), phi, psi)
    reduced_weight = grid.h ** (n - 1)
    for pair in sysmod.enumerate_pairs(spec):
        tp = apply_trace(grid, spec, pair, phi)
        tq = apply_trace(grid, spec, pair, psi)
        total -= spec.g * complex(np.vdot(tp, tq)) * reduced_weight
    return total
