"""Pair-channel blocks of the contact-coupling system.

After factorizing each regularized pair potential as A* A, solving
(H - z) u = f reduces to a block system indexed by pairs: the
"channel" unknowns chi_sigma live on (relative coordinate) x (reduced
configuration), and the system matrix is

    Lambda = 1 - Phi,    Phi_{sigma nu} = g A_sigma R0 A_nu*,

with R0 the free resolvent.  The whole system runs in momentum: the
lab field is kept as Fourier coefficients, on which R0 is its symbol
1/(E(k) - z), and a channel field is stored on the m support rows of its
coupling map's relative axis only, in reduced momentum.  Every coupling
map commutes with joint translations, so it acts class by class on the
pair momentum (see the bump module), and the same-pair blocks, which
commute with reduced translations, are slice-wise multiplications.  A
resolvent application transforms once on entry and once on exit; the
Neumann iteration in between runs no FFT.  This module provides

  * the exact grid multiplier tau R0 tau* on the reduced configuration
    space (a wrapped class sum over reduced momenta);
  * DiagonalBlock: the explicit symmetric kernel of Phi_{sigma sigma}
    on the support of the profile, for norm measurements against the
    claimed bound sqrt(mu/2) |g| / sqrt(|z|);
  * OffDiagonalBlock: the factorized limit kernel between two distinct
    pairs, reduced to a 3- or 4-dimensional displacement fed to the
    free-space kernel, for norm measurements against K |g| / sqrt(|z|);
  * ChannelSystem: the one channel system of every channel route --
    one support-row map per pair, threshold and Neumann bookkeeping,
    the channel applications, the diagonal blocks factored once per
    momentum slice, and the resolvent itself;
  * LambdaMatrix: the coupling-map channel system, the resolvent of the
    kk and limit routes (the theta route's TraceAssembly is the same
    system with the trace map);
  * invert_lambda: the guarded inversion, exact on the diagonal blocks,
    with a tail-bounded outer iteration for the off-diagonal part.

Reduced coordinate order is fixed everywhere as (pair center of mass,
then spectators by ascending particle label); it is what the class
gather in the grid module produces.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.linalg

from . import greens as greensmod
from . import grid as gridmod
from . import system as sysmod
from .bump import DEFAULT_PROFILE, coupling_map
from .errors import (
    AboveThreshold,
    SameBlockRequested,
    SeriesDiverging,
)

# Chunk (entries) of the kernel lattice evaluated at once; the disjoint
# 16^6 lattice is 134 MB, so its kernel temporaries are built piecewise.
_KERNEL_CHUNK = 1 << 21

# invert_lambda: Neumann terms before it gives up, relative tail bound to reach.
MAX_TERMS = 200
CHANNEL_TOL = 1e-10


def pair_class_multiplier(grid, spec, pair, z):
    """Exact grid multiplier of tau R0 tau* on the reduced lattice.

    For each total-pair-momentum class K the relative degree of freedom
    is summed out of the free symbol E (grid.kinetic_multiplier) over the
    wrapped index pairs (k, (K - k) mod N) of the pair's members:

        D[K, spect] = (1/L) sum_k 1 / (E(k, (K - k) mod N, spect) - z).

    This is an identity on the grid, not an approximation: applying the
    hyperplane restriction, the free resolvent, and the restriction
    adjoint is the same operator as multiplying by D in the reduced
    momentum representation.
    """
    z = float(z)
    if z >= 0:
        raise ValueError("multiplier requires a real negative spectral parameter")
    symbol = 1.0 / (gridmod.kinetic_multiplier(grid, spec.masses) - z)
    classes = gridmod.class_gather(gridmod.lab_axes_to_front(symbol, pair))  # [K, k, ...]
    # a C-ordered [k, K, ...] copy fixes the axis-0 sum order
    return np.sum(np.ascontiguousarray(classes.swapaxes(0, 1)), axis=0) / grid.box


# ---------------------------------------------------------------------------
# Diagonal blocks
# ---------------------------------------------------------------------------


class DiagonalBlock:
    """Same-pair block of the coupled system, as an explicit kernel.

    In each reduced-momentum fiber with kinetic offset q >= 0 the block
    acts on the relative coordinate alone, with symmetric kernel

        g sqrt(mu/2) v(r) (q - z)^(-1/2)
          exp(-eps sqrt(2 mu (q - z)) |r - r'|) v(r')

    collapsing at eps = 0 (width None) to the rank-one kernel
    g sqrt(mu/2) (q - z)^(-1/2) v(r) v(r').  Only the profile support
    contributes, so kernels are materialized on that subgrid.
    """

    def __init__(self, grid, spec, pair, z, eps=None):
        if z >= 0:
            raise ValueError("diagonal block requires z < 0")
        self.grid = grid
        self.spec = spec
        self.pair = pair
        self.z = float(z)
        self.eps = None if eps is None else float(eps)
        mask = np.abs(grid.x) < DEFAULT_PROFILE.support_radius
        self.indices = np.nonzero(mask)[0]
        self.r = grid.x[self.indices]
        self.v = DEFAULT_PROFILE.value(self.r)

    def kernel_matrix(self, q=0.0):
        """Symmetric kernel matrix (quadrature weight included) at offset q:
        2 mu times the 1-d free kernel at -2 mu (q - z) and eps |r - r'|."""
        if q < 0:
            raise ValueError("reduced kinetic offset must be non-negative")
        mu2 = 2.0 * self.pair.mu
        sep = 0.0 if self.eps is None else self.eps * np.abs(self.r[:, None] - self.r)
        kernel = mu2 * greensmod.greens_closed(1, -mu2 * (q - self.z), sep)
        return self.spec.g * kernel * np.outer(self.v, self.v) * self.grid.h

    def fiber_eigenvalues(self):
        """Kernel eigenvalues, one row per kinetic offset of a 17-point lattice.

        The kernel norm decreases with the offset, so the lattice starts
        at q = 0 where the supremum is attained.
        """
        offsets = np.linspace(0.0, 4.0 * abs(self.z), 17)
        return np.linalg.eigvalsh(np.stack([self.kernel_matrix(q) for q in offsets]))

    def norm(self):
        """Largest fiber operator norm over the offset lattice."""
        return float(np.max(np.abs(self.fiber_eigenvalues())))

    def claimed_bound(self):
        """The a priori norm bound sqrt(mu/2) |g| / sqrt(|z|)."""
        return math.sqrt(self.pair.mu / 2.0) * abs(self.spec.g) / math.sqrt(-self.z)


@dataclass
class BlockConvergence:
    """Measured narrow-width convergence of diagonal blocks."""

    eps: tuple
    gaps: tuple
    rate: float
    slope: float


def verify_block_convergence(grid, spec, pair, z, eps_list):
    """Measure ||block(eps) - block(0)|| against the linear-rate claim.

    The claimed rate is 2 |g| mu sqrt(second moment of the squared
    profile); the gap at each width is the largest fiber-norm difference
    over a lattice of reduced kinetic offsets (worst at offset zero).
    Returns the measured gaps, the claimed rate, and the fitted log-log
    slope of gap against width.
    """
    offsets = np.linspace(0.0, 4.0 * abs(z), 9)
    limit = DiagonalBlock(grid, spec, pair, z, None)
    base = {q: limit.kernel_matrix(q) for q in offsets}
    gaps = []
    for eps in eps_list:
        blk = DiagonalBlock(grid, spec, pair, z, eps)
        gap = 0.0
        for q in offsets:
            diff = blk.kernel_matrix(q) - base[q]
            gap = max(gap, float(np.max(np.abs(np.linalg.eigvalsh(diff)))))
        gaps.append(gap)
    moment = DEFAULT_PROFILE.potential_moment(2)
    rate = 2.0 * abs(spec.g) * pair.mu * math.sqrt(moment)
    slope = float(np.polyfit(np.log(eps_list), np.log(gaps), 1)[0])
    return BlockConvergence(tuple(eps_list), tuple(gaps), rate, slope)


# ---------------------------------------------------------------------------
# Off-diagonal blocks
# ---------------------------------------------------------------------------


class OffDiagonalBlock:
    """Distinct-pair block in the zero-width limit.

    The block factorizes through the profile on both relative
    coordinates; what remains is a kernel between the reduced lattices
    of the two pairs, each in the fixed order (pair center of mass, then
    spectators by ascending label).  Particle p sits at the center of
    mass of each pair it belongs to and at its own spectator coordinate
    otherwise; its row and column positions add 2 m_p (row - column)^2
    to the squared displacement rho^2, and the entry is the n-dimensional
    free-space kernel ``greens.greens_closed(n, z, rho)``.  Coincidence
    points (rho = 0) are singular; the materialized matrix sets those
    entries to zero.  Every entry carries the sign of the coupling
    constant, so dropping them can only lower the norm: the measured
    norm is a lower estimate of the block's, and an audit of "measured
    <= claimed" on it is lenient.

    The kernel is materialized for the two smallest systems exhibiting
    each geometry: three particles for pairs sharing a member ("shared"),
    four for disjoint pairs ("disjoint").
    """

    def __init__(self, grid, spec, sigma, nu, z):
        if (sigma.i, sigma.j) == (nu.i, nu.j):
            raise SameBlockRequested("off-diagonal block needs two distinct pairs")
        if z >= 0:
            raise ValueError("off-diagonal block requires z < 0")
        self.grid = grid
        self.spec = spec
        self.sigma = sigma
        self.nu = nu
        self.z = float(z)
        common = {sigma.i, sigma.j} & {nu.i, nu.j}
        self.kind = "shared" if len(common) == 1 else "disjoint"

    def coupling_constant(self):
        """Signed prefactor of the factorized kernel: -2^(n/2) g sqrt(prod m)."""
        n = self.spec.n
        return -(2.0 ** (n / 2)) * self.spec.g * math.sqrt(math.prod(self.spec.masses))

    def kernel_matrix(self):
        """Materialize the reduced-to-reduced kernel with quadrature weights.

        Rows are indexed by the flattened reduced lattice of the first
        pair, columns by that of the second; both in the fixed reduced
        coordinate order.
        """
        n = self.spec.n
        if self.kind == "shared" and n != 3:
            raise ValueError("explicit shared-pair kernel needs three particles")
        if self.kind == "disjoint" and n != 4:
            raise ValueError("explicit disjoint-pair kernel needs four particles")
        N = self.grid.npoints

        def positions(pair, first, p):
            """Lattice positions of particle p in pair's reduced coordinates."""
            if p in (pair.i, pair.j):
                axis = first
            else:
                axis = first + 1 + sysmod.spectator_indices(self.spec, pair).index(p)
            view = [1] * (2 * n - 2)
            view[axis] = N
            return self.grid.x.reshape(view)

        sq = 0.0
        for p, m in enumerate(self.spec.masses, start=1):
            diff = positions(self.sigma, 0, p) - positions(self.nu, n - 1, p)
            sq = sq + 2.0 * m * diff ** 2
        flat = np.sqrt(sq, out=sq).reshape(-1)
        for lo in range(0, flat.size, _KERNEL_CHUNK):
            piece = flat[lo:lo + _KERNEL_CHUNK]
            good = piece > 0.0
            piece[good] = greensmod.greens_closed(n, self.z, piece[good])
        sq *= self.coupling_constant() * self.grid.h ** (n - 1)
        return sq.reshape(N ** (n - 1), N ** (n - 1))

    def norm(self):
        """Exact operator norm of the materialized kernel, with the profile factor.

        The largest singular value, from the top eigenvalue of the normal
        matrix; the profile carries unit continuum norm, so only its
        sampled-quadrature norm enters.
        """
        mat = self.kernel_matrix()
        size = mat.shape[1]
        # M^T M is formed exactly symmetric, so its transpose is the same
        # matrix in the Fortran order LAPACK factors in place.
        gram = (mat.T @ mat).T
        del mat
        top = scipy.linalg.eigvalsh(gram, subset_by_index=[size - 1, size - 1],
                                    overwrite_a=True)
        window = DEFAULT_PROFILE.value(self.grid.x)
        vnorm = self.grid.h * float(np.sum(window ** 2))
        return math.sqrt(max(float(top[0]), 0.0)) * vnorm

    def claimed_bound(self):
        """The a priori norm bound K |g| / sqrt(|z|)."""
        consts = sysmod.bound_constants(self.spec)
        return consts.offdiag_coeff * abs(self.spec.g) / math.sqrt(-self.z)


# ---------------------------------------------------------------------------
# The assembled block system
# ---------------------------------------------------------------------------


def materialize_diagonal_slices(grid, spec, coupling, free):
    """Exact per-momentum-slice matrices of one diagonal block T R0 T*.

    The block commutes with every reduced-lattice translation, so in the
    mixed representation (support row) x (reduced momentum) it is block
    diagonal with one small Hermitian matrix per momentum multi-index.
    Feeding the unit channel fields at each support row (a field at the
    reduced origin, hence constant in reduced momentum) through the
    momentum maps and ``free`` (R0 on lab coefficients), as one batch,
    recovers every slice, returned as reduced-lattice + (m, m).
    """
    m = coupling.support.size
    reduced = (grid.npoints,) * (spec.n - 1)
    basis = np.moveaxis(np.broadcast_to(np.eye(m, dtype=complex), reduced + (m, m)),
                        -2, 0)
    return np.moveaxis(coupling.forward(free(coupling.adjoint(basis))), 0, -2)


def channel_norm(fields):
    """Euclidean norm of a list of channel fields (no grid weight)."""
    return math.sqrt(sum(float(np.sum(np.abs(c) ** 2)) for c in fields))


class ChannelSystem:
    """The channel matrix 1 - g T R0 T* of one channel map T = (T_k), and the
    resolvent of every channel route.

    Holds the guarded spectral parameter, the pairs, one map per pair
    (``pair_map(pair)``, a support-row map of the bump module), the free
    resolvent R0, the a priori threshold and Neumann bookkeeping, the
    channel applications, and the resolvent itself: ``apply`` is
    R0 + g R0 T* (1 - g T R0 T*)^{-1} T R0, inverted to CHANNEL_TOL
    (``force`` unlocks z above the threshold).

    ``apply`` keeps the lab field as Fourier coefficients throughout: one
    FFT at entry, one inverse FFT at exit, and between them R0 is its
    symbol 1/(E(k) - z), so the channel applications and the Neumann
    terms run no FFT.  Channel fields live on each map's support rows in
    reduced momentum, with a batch on trailing axes.  The cross-pair
    coupling goes through the lab coefficients, so a full application
    costs one product with the free-resolvent symbol regardless of the
    number of pairs.  Each same-pair block is factored once, at first use,
    per reduced-momentum slice on the map's support: in closed form for
    zero-width maps (``eps`` None; rank one, the unit window column times
    the class multiplier) and otherwise as the materialized slice
    matrices, whose batched eigendecomposition U diag(lam) U* gives the
    inverse as 1 + U diag(g lam/(1 - g lam)) U*.  The block and its
    inverse are then slice-wise multiplications.
    """

    def __init__(self, grid, spec, z, pair_map, eps, force):
        z = float(z)
        if z >= 0:
            raise ValueError("channel system requires a real negative z")
        self.grid = grid
        self.spec = spec
        self.z = z
        self.eps = None if eps is None else float(eps)
        self.force = bool(force)
        self.pairs = sysmod.enumerate_pairs(spec)
        self.symbol = 1.0 / (gridmod.kinetic_multiplier(grid, spec.masses) - z)
        self._lab_axes = tuple(range(spec.n))
        self.constants = sysmod.bound_constants(spec)
        self.maps = [pair_map(p) for p in self.pairs]
        self._diag_cache = None

    # -- norm bookkeeping ---------------------------------------------------

    @property
    def threshold(self):
        return self.constants.threshold

    def diagonal_contraction(self):
        """A priori bound on each diagonal block norm at this z."""
        return (self.constants.diag_coeff * abs(self.spec.g)
                / math.sqrt(-self.z))

    def neumann_ratio(self):
        """A priori bound on ||diag^-1 offdiag|| for the outer iteration."""
        P = len(self.pairs)
        off = ((P - 1) * self.constants.offdiag_coeff * abs(self.spec.g)
               / math.sqrt(-self.z))
        return off / (1.0 - self.diagonal_contraction())

    # -- applications ---------------------------------------------------------

    def free(self, coeffs):
        """R0 on lab Fourier coefficients: the symbol times them, a batch trailing."""
        extra = (1,) * (coeffs.ndim - self.spec.n)
        return self.symbol.reshape(self.symbol.shape + extra) * coeffs

    def lift(self, k, coeffs):
        """T_k on lab coefficients, to channel k."""
        return self.maps[k].forward(coeffs)

    def drop(self, k, chi):
        """T_k*, from channel k back to lab coefficients."""
        return self.maps[k].adjoint(chi)

    def own(self, k, chi):
        """T_k R0 T_k* chi, a same-pair block without g."""
        return self._diagonal()[k][0](chi)

    def apply_diag_inverse(self, fields):
        """Exact inverse of the same-pair blocks, channel by channel."""
        return [f + self._diagonal()[k][1](f) for k, f in enumerate(fields)]

    def smoothed(self, fields):
        """R0 of the sum of the channel adjoints T_k* fields[k]."""
        total = self.drop(0, fields[0])
        for k in range(1, len(fields)):
            total = total + self.drop(k, fields[k])
        return self.free(total)

    def channel_apply(self, fields):
        """Full system application on one channel field per pair."""
        smoothed = self.smoothed(fields)
        g = self.spec.g
        return [f - g * self.lift(k, smoothed) for k, f in enumerate(fields)]

    def apply_offdiag(self, fields):
        """Only the distinct-pair blocks (zero on the diagonal)."""
        smoothed = self.smoothed(fields)
        g = self.spec.g
        return [-g * (self.lift(k, smoothed) - self.own(k, f))
                for k, f in enumerate(fields)]

    # -- the factored diagonal ------------------------------------------------

    def _diagonal(self):
        """Per pair (block, correction, lam): T_k R0 T_k*, (1 - g T_k R0 T_k*)^-1 - 1
        (both maps of channel fields) and the block's eigenvalues per slice."""
        if self._diag_cache is None:
            g = self.spec.g
            self._diag_cache = []
            for pair, cmap in zip(self.pairs, self.maps):
                if self.eps is None:
                    unit = math.sqrt(self.grid.h) * cmap.weights
                    lam = pair_class_multiplier(self.grid, self.spec, pair, self.z)
                    lam = lam.reshape(-1, 1)
                    block, correction = (functools.partial(_rank_one, unit, d)
                                         for d in (lam, g * lam / (1.0 - g * lam)))
                else:
                    mats = materialize_diagonal_slices(self.grid, self.spec, cmap,
                                                       self.free)
                    mats = mats.reshape((-1,) + mats.shape[-2:])
                    lam, vecs = np.linalg.eigh(mats)
                    gain = (g * lam / (1.0 - g * lam))[..., None]
                    block = functools.partial(_slice_matmul, mats)
                    correction = functools.partial(
                        _slice_matmul, vecs @ (gain * vecs.conj().swapaxes(-1, -2)))
                self._diag_cache.append((block, correction, lam))
        return self._diag_cache

    # -- the resolvent --------------------------------------------------------

    def solve_channels(self, fields):
        """Solve (1 - g T R0 T*) x = fields by the guarded Neumann iteration."""
        return invert_lambda(self, fields)

    def apply(self, field):
        """(H - z)^{-1} field as R0 f + g R0 T* (1 - g T R0 T*)^{-1} T R0 f."""
        u0 = self.free(scipy.fft.fftn(field, axes=self._lab_axes))
        channels = [self.lift(k, u0) for k in range(len(self.pairs))]
        sol = self.solve_channels(channels)
        return scipy.fft.ifftn(u0 + self.spec.g * self.smoothed(sol),
                               axes=self._lab_axes)

    __call__ = apply


class LambdaMatrix(ChannelSystem):
    """The coupled channel system 1 - g A R0 A*: the kk and limit resolvent.

    Its channel map is one coupling map per pair: limit maps for eps=None
    (``mode`` "limit", the contact operator's resolvent), sheared or
    narrow-width maps otherwise (``mode`` "kk").
    """

    def __init__(self, grid, spec, z, eps=None, force=False):
        pair_map = functools.partial(coupling_map, grid, spec, eps=eps)
        super().__init__(grid, spec, z, pair_map, eps, force)
        self.mode = "limit" if eps is None else "kk"


def _rank_one(unit, scale, chi):
    """unit (x) (scale * <unit, chi>) on each flattened reduced-momentum slice."""
    coeff = (unit @ chi.reshape(unit.size, -1)).reshape(scale.shape[0], -1)
    return np.multiply.outer(unit, scale * coeff).reshape(chi.shape)


def _slice_matmul(mats, chi):
    """mats[s] @ chi[:, s] on each flattened slice s, the batch axes as columns."""
    rows = chi.reshape(chi.shape[0], mats.shape[0], -1).transpose(1, 0, 2)
    return (mats @ rows).transpose(1, 0, 2).reshape(chi.shape)


def invert_lambda(lam, fields):
    """Solve the coupled channel system below the guarded threshold.

    Factorizes the inverse as (1 + D^-1 F)^-1 D^-1 with D the diagonal
    and F the off-diagonal part.  D^-1 is exact; the outer factor is
    expanded in a geometric series whose tail is controlled by the a
    priori ratio, raising AboveThreshold when the spectral parameter
    does not sit below the guaranteed-convergence threshold and
    SeriesDiverging when the tail bound cannot reach CHANNEL_TOL.
    ``lam.force`` skips only the threshold gate (unsupported territory);
    divergence of the series still raises.
    """
    if not lam.force and lam.z >= lam.threshold:
        raise AboveThreshold(lam.z, lam.threshold)
    current = lam.apply_diag_inverse(fields)
    if len(lam.pairs) == 1:
        return current
    ratio = lam.neumann_ratio()
    if not 0.0 <= ratio < 1.0:
        raise SeriesDiverging(
            "off-diagonal contraction ratio %.3f is not below one" % ratio)
    total = [c.copy() for c in current]
    scale = channel_norm(current)
    if scale == 0.0:
        return total
    # The tail after the last computed term is geometrically dominated:
    # ||sum of dropped terms|| <= ratio/(1-ratio) * ||last term||.
    factor = ratio / (1.0 - ratio)
    terms = 0
    while True:
        size = channel_norm(current)
        if size * factor <= CHANNEL_TOL * scale:
            return total
        terms += 1
        if terms > MAX_TERMS:
            raise SeriesDiverging(
                "tail bound still %.3g after %d terms"
                % (size * factor / scale, MAX_TERMS))
        current = lam.apply_diag_inverse(lam.apply_offdiag(current))
        current = [-c for c in current]
        total = [t + c for t, c in zip(total, current)]
