"""The smooth compactly supported profile v and the coupling maps built from it.

v(x) = c * exp(-1/(1 - (x/a)^2)) inside |x| < a and zero outside, with c
fixed so that the potential V = v^2 integrates to one.  V_eps(x) =
V(x/eps)/eps then carries unit mass at every eps and narrows onto the
collision hyperplane as eps shrinks.
"""

from dataclasses import dataclass

import numpy as np
import scipy.integrate

from . import forms as formsmod
from . import grid as gridmod
from . import system as sysmod
from .errors import PotentialOverflowsBox, UnresolvedBump

# Normalization for support radius 1, frozen from an adaptive-quadrature
# calibration (see BumpProfile.calibrated); integral of v^2 equals 1.
NORMALIZATION = 2.7411551457069723


@dataclass(frozen=True)
class BumpProfile:
    """Even smooth profile of compact support with unit-mass square."""

    support_radius: float = 1.0
    normalization: float = NORMALIZATION

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        u = x / self.support_radius
        mask = np.abs(u) < 1.0
        out[mask] = self.normalization * np.exp(-1.0 / (1.0 - u[mask] ** 2))
        return out

    def potential(self, x):
        return self.value(x) ** 2

    def scaled_potential(self, x, eps):
        if eps <= 0:
            raise ValueError("eps must be positive")
        return self.potential(np.asarray(x, dtype=float) / eps) / eps

    @classmethod
    def calibrated(cls):
        """Recompute the unit-radius normalization by quadrature instead of
        trusting the constant."""
        mass, _ = scipy.integrate.quad(
            lambda x: np.exp(-2.0 / (1.0 - x ** 2)), -1.0, 1.0,
            epsabs=1e-14, epsrel=1e-13
        )
        return cls(1.0, 1.0 / np.sqrt(mass))

    def potential_moment(self, order):
        """Moment integral of x^order against the squared profile."""
        a = self.support_radius
        val, _ = scipy.integrate.quad(
            lambda x: x ** order * self.potential(x), -a, a,
            epsabs=1e-13, epsrel=1e-12,
        )
        return val


DEFAULT_PROFILE = BumpProfile()


def renormalized_samples(grid):
    """Profile samples rescaled so the grid quadrature of v^2 is exactly one.

    The continuum normalization only holds up to O(h^k) on the grid; the
    limit coupling blocks use these corrected samples so factorization
    identities close to machine precision instead of to quadrature error.
    """
    v = DEFAULT_PROFILE.value(grid.x)
    mass = grid.h * float(np.sum(v ** 2))
    return v / np.sqrt(mass)


def check_fits_box(grid, eps):
    """Raise PotentialOverflowsBox unless the width-eps bump fits in half the box.

    A wider bump overlaps its own periodic images, so what the grid
    samples is no longer V_eps.
    """
    if eps * DEFAULT_PROFILE.support_radius >= grid.box / 2:
        raise PotentialOverflowsBox(
            "support radius %g exceeds half box %g"
            % (eps * DEFAULT_PROFILE.support_radius, grid.box / 2)
        )


def sampled_pair_potential(grid, eps):
    """V_eps at the wrapped pairwise separation, as a 2-d array over (i, j) indices."""
    check_fits_box(grid, eps)
    sep = gridmod.minimum_image_separation(grid)
    return DEFAULT_PROFILE.scaled_potential(sep, eps)


def resolution_ok(grid, eps):
    """Whether the scaled potential puts at least 8 grid points across its support."""
    return 2.0 * eps * DEFAULT_PROFILE.support_radius >= 8.0 * grid.h - 1e-12


def build_hamiltonian(grid, spec, eps):
    """Assemble the regularized generator with pointwise-sampled potentials."""
    if not resolution_ok(grid, eps):
        raise UnresolvedBump(
            "scaled support %g spans fewer than 8 grid cells (h = %g)"
            % (2.0 * eps * DEFAULT_PROFILE.support_radius, grid.h)
        )
    v2 = sampled_pair_potential(grid, eps)
    pairs = sysmod.enumerate_pairs(spec)
    return gridmod.HamiltonianEps(grid, spec, eps, [(p, v2) for p in pairs])


# ---------------------------------------------------------------------------
# Coupling maps A_eps: the two grid factorizations of the pair potential
# ---------------------------------------------------------------------------
#
# Narrow-width route ("chain"): change to the pair frame, evaluate at the
# squeezed relative coordinate, multiply by the profile.  Stable for every
# eps the grid can express and converging to the hyperplane restriction as
# eps -> 0; its square reproduces V_eps only up to spectral aliasing.
#
# Resolved route ("shear"): an exact index shear onto (difference, member-j)
# coordinates followed by multiplication with sqrt(V_eps) sampled at the
# wrapped separation.  Its square reproduces the sampled potential to
# machine precision but needs the bump resolved by the grid.


class ChainCouplingMap:
    """A_eps for one pair via frame change + squeeze + profile window."""

    def __init__(self, grid, spec, pair, eps):
        check_fits_box(grid, eps)
        self.grid = grid
        self.spec = spec
        self.pair = pair
        self.eps = float(eps)
        self.alpha, self.beta = sysmod.frame_weights(spec, pair)
        self.window = renormalized_samples(grid)

    def forward(self, lab_field):
        f = gridmod.lab_axes_to_front(lab_field, self.pair)
        f = gridmod.pair_frame_forward(self.grid, f, self.alpha, self.beta)
        f = gridmod.dilation_eval(self.grid, f, self.eps)
        w = self.window.reshape((-1,) + (1,) * (f.ndim - 1))
        return w * f

    def adjoint(self, chi_field):
        w = self.window.reshape((-1,) + (1,) * (chi_field.ndim - 1))
        f = gridmod.dilation_eval_adjoint(self.grid, w * chi_field, self.eps)
        f = gridmod.pair_frame_adjoint(self.grid, f, self.alpha, self.beta)
        return gridmod.lab_axes_from_front(f, self.pair)

    def support_indices(self):
        """First-axis indices the coupled fields can live on."""
        return np.nonzero(self.window)[0]


class ShearCouplingMap:
    """A_eps for one pair via the exact index shear; needs a resolved bump."""

    def __init__(self, grid, spec, pair, eps):
        check_fits_box(grid, eps)
        if not resolution_ok(grid, eps):
            raise UnresolvedBump(
                "shear factorization needs the scaled bump resolved by the grid"
            )
        self.grid = grid
        self.spec = spec
        self.pair = pair
        self.eps = float(eps)
        sep = gridmod.minimum_image_separation(grid)[:, 0]
        # wrapped separation value for difference index d at member-j index 0;
        # by translation invariance the same for every member-j index
        self.root = np.sqrt(DEFAULT_PROFILE.scaled_potential(sep, eps))
        self._idx = np.arange(grid.npoints)

    def forward(self, lab_field):
        f = gridmod.lab_axes_to_front(lab_field, self.pair)
        N = self.grid.npoints
        d = self._idx[:, None]
        q = self._idx[None, :]
        sheared = f[(d + q) % N, q]
        w = self.root.reshape((N,) + (1,) * (sheared.ndim - 1))
        return w * sheared

    def adjoint(self, chi_field):
        N = self.grid.npoints
        w = self.root.reshape((N,) + (1,) * (chi_field.ndim - 1))
        g = w * chi_field
        out = np.zeros_like(g)
        d = self._idx[:, None]
        q = self._idx[None, :]
        # scatter back: adjoint of the gather permutation
        out[(d + q) % N, q] = g[d, q]
        return gridmod.lab_axes_from_front(out, self.pair)

    def support_indices(self):
        """First-axis indices the coupled fields can live on."""
        return np.nonzero(self.root)[0]


class LimitCouplingMap:
    """The eps -> 0 coupling: profile window tensor hyperplane restriction.

    The hyperplane r = 0 holds the grid points where both pair members sit
    at the same lattice site, so the restriction is the trace's diagonal
    gather f[k, k, ...] and its adjoint the diagonal scatter, both without
    the trace adjoint's 1/h.
    """

    def __init__(self, grid, spec, pair):
        self.grid = grid
        self.spec = spec
        self.pair = pair
        self.window = renormalized_samples(grid)

    def forward(self, lab_field):
        diag = formsmod.apply_trace(self.grid, self.spec, self.pair, lab_field)
        w = self.window.reshape((-1,) + (1,) * diag.ndim)
        return w * diag[None]

    def adjoint(self, chi_field):
        w = self.window.reshape((-1,) + (1,) * (chi_field.ndim - 1))
        return formsmod.diagonal_scatter(self.grid, self.spec, self.pair,
                                         np.sum(w * chi_field, axis=0))

    def support_indices(self):
        """First-axis indices the coupled fields can live on."""
        return np.nonzero(self.window)[0]


def coupling_map(grid, spec, pair, eps=None):
    """Pick the coupling factorization for one pair.

    eps=None yields the limit map.  Positive eps must fit the bump in
    half the box (both width maps raise PotentialOverflowsBox otherwise)
    and dispatches on the resolution rule: the exact shear when the grid
    resolves the scaled bump, the narrow-width chain otherwise.
    """
    if eps is None:
        return LimitCouplingMap(grid, spec, pair)
    if resolution_ok(grid, eps):
        return ShearCouplingMap(grid, spec, pair, eps)
    return ChainCouplingMap(grid, spec, pair, eps)
