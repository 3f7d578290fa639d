"""The smooth compactly supported profile v and the coupling maps built from it.

v(x) = c * exp(-1/(1 - (x/a)^2)) inside |x| < a and zero outside, with c
fixed so that the potential V = v^2 integrates to one.  V_eps(x) =
V(x/eps)/eps then carries unit mass at every eps and narrows onto the
collision hyperplane as eps shrinks.
"""

from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.integrate

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
    return gridmod.HamiltonianEps(grid, spec, eps, sampled_pair_potential(grid, eps))


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
#
# Every map runs in momentum (see the grid module): ``forward`` takes lab
# Fourier coefficients to a channel field on the support rows x reduced
# momentum (pair class K, then the spectators), ``adjoint`` takes one back.
# Both commute with joint translations, so each is the class gather, one
# (m x N) matrix per class K, and the class scatter on the way back.  The
# theta route's channel map, the bare hyperplane trace, is one more such map.


class _SupportRows:
    """A pair's map whose image is the ``support`` rows of the relative axis,
    where its profile ``samples`` (kept there as ``weights``) are nonzero.

    The map is ``waves`` (m x N: one matrix per class K, or one shared by
    every class) times the weights, applied to each class's members k1,
    with the 1/N of the transform; its adjoint is the conjugate transpose
    without it.
    """

    def __init__(self, grid, spec, pair, samples, waves):
        self.grid = grid
        self.spec = spec
        self.pair = pair
        self.support = np.nonzero(samples)[0]
        self.weights = samples[self.support]
        rows = self.weights[:, None] * waves
        self._rows = rows / grid.npoints
        self._rows_adjoint = np.ascontiguousarray(rows.conj().swapaxes(-1, -2))

    def forward(self, coeffs):
        classes = gridmod.class_gather(gridmod.lab_axes_to_front(coeffs, self.pair))
        N = classes.shape[0]
        chi = np.matmul(self._rows, classes.reshape(N, N, -1))  # [K, m, rest]
        return chi.swapaxes(0, 1).reshape((self.support.size, N) + classes.shape[2:])

    def adjoint(self, chi):
        m, N = chi.shape[:2]
        classes = np.matmul(self._rows_adjoint, chi.reshape(m, N, -1).swapaxes(0, 1))
        classes = classes.reshape((N, N) + chi.shape[2:])  # [K, k1, rest]
        return gridmod.lab_axes_from_front(gridmod.class_scatter(classes), self.pair)


class ChainCouplingMap(_SupportRows):
    """A_eps for one pair via frame change + squeeze + profile window: on each
    class K, one (m x N) matrix, the squeeze rows (row a: the window at r_a
    times the trigonometric interpolant at eps r_a) times the frame mixer."""

    def __init__(self, grid, spec, pair, eps):
        check_fits_box(grid, eps)
        self.eps = float(eps)
        samples = renormalized_samples(grid)
        # Offset by -x[0] so plain FFT coefficients (no centre phase) can be used;
        # the waves split the Nyquist wavenumber, as in the pair frame.
        pts = self.eps * grid.x[samples > 0.0] - grid.x[0]
        squeeze = scipy.fft.fft(gridmod._nyquist_waves(grid, 1, pts), axis=1)  # [m, a]
        rows = gridmod.pair_frame_rows(grid, *sysmod.frame_weights(spec, pair), squeeze)
        super().__init__(grid, spec, pair, samples, rows)


class ShearCouplingMap(_SupportRows):
    """A_eps for one pair via the exact index shear; needs a resolved bump.

    Row d of the shear reads the lab field at (d + q, q); on the class K
    of (member-i, member-j) momenta that is the phase exp(2 pi i k1 d / N).
    """

    def __init__(self, grid, spec, pair, eps):
        check_fits_box(grid, eps)
        if not resolution_ok(grid, eps):
            raise UnresolvedBump(
                "shear factorization needs the scaled bump resolved by the grid"
            )
        sep = gridmod.minimum_image_separation(grid)[:, 0]
        # wrapped separation value for difference index d at member-j index 0;
        # by translation invariance the same for every member-j index
        samples = np.sqrt(DEFAULT_PROFILE.scaled_potential(sep, eps))
        k = np.arange(grid.npoints)
        shear = np.exp(2j * np.pi * np.outer(k, k) / grid.npoints)   # [d, k1]
        super().__init__(grid, spec, pair, samples, shear[samples > 0.0])
        self.eps = float(eps)


class LimitCouplingMap(_SupportRows):
    """The eps -> 0 coupling: profile window tensor hyperplane restriction.

    The hyperplane r = 0 holds the grid points where both pair members sit
    at the same lattice site, so the restriction is the trace's diagonal
    gather f[k, k, ...] (without the trace adjoint's 1/h): on each class,
    the sum of its members.
    """

    def __init__(self, grid, spec, pair):
        samples = renormalized_samples(grid)
        super().__init__(grid, spec, pair, samples,
                         np.ones((np.count_nonzero(samples), grid.npoints)))


class TraceMap(_SupportRows):
    """The hyperplane trace itself, as one support row: the relative origin
    x = 0 with weight h^(-1/2) and no profile window.

    T R0 T* is then (1/h) trace R0 (diagonal scatter), the theta route's
    channel matrix, and sqrt(h) times the weight is one, so the limit map's
    rank-one closed form with the class multiplier is its exact diagonal.
    """

    def __init__(self, grid, spec, pair):
        samples = np.zeros(grid.npoints)
        samples[grid.npoints // 2] = grid.h ** -0.5
        super().__init__(grid, spec, pair, samples, np.ones((1, grid.npoints)))


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
